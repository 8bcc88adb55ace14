let of_costs ~n cost =
  List.sort
    (fun a b ->
      let c = Int.compare (cost a) (cost b) in
      if c <> 0 then c else Int.compare a b)
    (List.init n Fun.id)

let of_cost_vector v = of_costs ~n:(Array.length v) (Array.get v)

let for_data mesh window ~data =
  of_cost_vector (Naive_cost.cost_vector mesh window ~data)

let first_available memory list =
  List.find_opt (fun rank -> not (Pim.Memory.is_full memory rank)) list

let assign memory list =
  match first_available memory list with
  | Some rank ->
      let ok = Pim.Memory.allocate memory rank in
      assert ok;
      rank
  | None -> failwith "Processor_list.assign: all candidate processors full"
