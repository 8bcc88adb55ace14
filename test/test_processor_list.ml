let check_int = Alcotest.(check int)
let mesh = Gen.mesh44

let test_of_cost_vector_sorted () =
  let list = Pim_oracle.Processor_list.of_cost_vector [| 5; 1; 3; 1 |] in
  Alcotest.(check (list int)) "sorted, ties by rank" [ 1; 3; 2; 0 ] list

let test_for_data_head_is_center () =
  let w = Gen.window ~n_data:1 [ (0, 9, 3); (0, 2, 1) ] in
  match Pim_oracle.Processor_list.for_data mesh w ~data:0 with
  | head :: _ ->
      check_int "head = local optimal center"
        (Sched.Cost.local_optimal_center mesh w ~data:0)
        head
  | [] -> Alcotest.fail "non-empty list expected"

let test_first_available_skips_full () =
  let memory = Pim.Memory.create mesh ~capacity:1 in
  ignore (Pim.Memory.allocate memory 4);
  Alcotest.(check (option int))
    "skips full head" (Some 7)
    (Pim_oracle.Processor_list.first_available memory [ 4; 7; 2 ]);
  Alcotest.(check (option int))
    "none" None
    (Pim_oracle.Processor_list.first_available memory [ 4 ])

let test_assign_allocates () =
  let memory = Pim.Memory.create mesh ~capacity:1 in
  check_int "first" 4 (Pim_oracle.Processor_list.assign memory [ 4; 7 ]);
  check_int "then next" 7 (Pim_oracle.Processor_list.assign memory [ 4; 7 ]);
  Alcotest.check_raises "exhausted"
    (Failure "Processor_list.assign: all candidate processors full")
    (fun () -> ignore (Pim_oracle.Processor_list.assign memory [ 4; 7 ]))

let prop_full_list_always_assignable =
  QCheck.Test.make ~name:"complete list always assigns under headroom"
    ~count:100
    QCheck.(int_range 1 32)
    (fun n_data ->
      let capacity = Pim.Memory.capacity_for ~data_count:n_data ~mesh ~headroom:1 in
      let memory = Pim.Memory.create mesh ~capacity in
      let complete = List.init (Pim.Mesh.size mesh) Fun.id in
      (* every datum finds a slot when capacity * procs >= n_data *)
      List.for_all
        (fun _ ->
          match Pim_oracle.Processor_list.first_available memory complete with
          | Some rank -> Pim.Memory.allocate memory rank
          | None -> false)
        (List.init n_data Fun.id))

(* ---- the exact placement search vs the literal processor list ---- *)

module Oracle = Pim_oracle.Processor_list

type search_case = {
  mesh : Pim.Mesh.t;
  trace : Reftrace.Trace.t;
  fault : Pim.Fault.t;
  patched : bool;  (* reach the fault by with_fault_patch, not cold *)
  capacity : int;
  used : int array;  (* slots taken per rank, each <= capacity *)
}

(* Meshes and tori of odd and even extents, 1xN and Nx1 rings included;
   healthy, node-faulted and link-faulted (plus dead nodes) sessions; few
   references of count 1-2, so cost ties are everywhere; and occupancies
   that are random, nearly full (at most two free slots) or full. *)
let search_gen =
  let open QCheck.Gen in
  int_range 1 5 >>= fun rows ->
  int_range 1 5 >>= fun cols ->
  bool >>= fun wrap ->
  let mesh =
    if wrap then Pim.Mesh.torus ~rows ~cols else Pim.Mesh.create ~rows ~cols
  in
  let size = rows * cols in
  Gen.trace_gen ~mesh ~max_data:3 ~max_windows:3 ~max_count:2 ()
  >>= fun trace ->
  int_range 0 2 >>= fun fault_kind ->
  list_size (int_range 0 (size - 1)) (int_range 0 (size - 1)) >>= fun dead ->
  (match Pim.Mesh.links mesh with
  | [] -> return []
  | links -> list_size (int_range 1 4) (oneofl links))
  >>= fun cut ->
  let dead_nodes = List.sort_uniq compare dead in
  let fault =
    match fault_kind with
    | 0 -> Pim.Fault.none
    | 1 -> Pim.Fault.create ~dead_nodes ()
    | _ ->
        Pim.Fault.create ~dead_nodes
          ~dead_links:(List.sort_uniq compare cut)
          ()
  in
  bool >>= fun patched ->
  int_range 1 3 >>= fun capacity ->
  int_range 0 2 >>= fun fill ->
  (match fill with
  | 0 -> array_size (return size) (int_range 0 capacity)
  | 1 ->
      list_size (int_range 0 2) (int_range 0 (size - 1)) >>= fun holes ->
      return
        (Array.init size (fun r ->
             if List.mem r holes then capacity - 1 else capacity))
  | _ -> return (Array.make size capacity))
  >>= fun used -> return { mesh; trace; fault; patched; capacity; used }

let search_print c =
  Format.asprintf "%a / %a / %a / patched=%b capacity=%d used=[%s]"
    Pim.Mesh.pp c.mesh Reftrace.Trace.pp c.trace Pim.Fault.pp c.fault
    c.patched c.capacity
    (String.concat ";" (Array.to_list (Array.map string_of_int c.used)))

(* Costs priced straight off BFS routes over the surviving links (mesh
   distances when no link is cut). *)
let oracle_distance oracle src dst =
  match Pim.Fault.Oracle.distance oracle ~src ~dst with
  | Some d -> d
  | None -> Sched.Problem.unreachable_cost

let oracle_row oracle size window ~data =
  Array.init size (fun center ->
      List.fold_left
        (fun acc (proc, count) ->
          acc + (count * oracle_distance oracle center proc))
        0
        (Reftrace.Window.profile window data))

let outcome f = match f () with r -> Ok r | exception Failure m -> Error m

let prop_nearest_free_is_list_head =
  QCheck.Test.make
    ~name:"nearest_free = first_available of the processor list"
    ~count:300
    (QCheck.make ~print:search_print search_gen)
    (fun c ->
      QCheck.assume (Pim.Fault.alive_count c.fault c.mesh > 0);
      let size = Pim.Mesh.size c.mesh in
      let ctx =
        Sched.Context.create ~policy:(Sched.Problem.Bounded c.capacity) c.mesh
          c.trace
      in
      let p =
        if c.patched then begin
          let base = Sched.Problem.of_context ctx in
          Sched.Problem.prefetch_referenced base;
          Sched.Problem.prefetch_merged base;
          Sched.Problem.with_fault_patch base c.fault
        end
        else Sched.Problem.of_context ~fault:c.fault ctx
      in
      let memory = Pim.Memory.create c.mesh ~capacity:c.capacity in
      Array.iteri
        (fun r n ->
          for _ = 1 to n do
            ignore (Pim.Memory.allocate memory r)
          done)
        c.used;
      let oracle = Pim.Fault.Oracle.create c.mesh c.fault in
      let list costs =
        Oracle.of_cost_vector costs
        |> List.filter (Sched.Problem.rank_alive p)
      in
      let agrees source costs =
        let l = list costs in
        Sched.Problem.nearest_free p memory source
        = Oracle.first_available memory l
        && outcome (fun () ->
               Sched.Problem.assign p (Pim.Memory.copy memory) source)
           = outcome (fun () -> Oracle.assign (Pim.Memory.copy memory) l)
      in
      let n_data = Sched.Problem.n_data p in
      List.for_all Fun.id
        (List.concat
           [
             List.concat
               (List.mapi
                  (fun w window ->
                    List.init n_data (fun data ->
                        agrees
                          (`Window (w, data))
                          (oracle_row oracle size window ~data)))
                  (Reftrace.Trace.windows c.trace));
             List.init n_data (fun data ->
                 agrees (`Merged data)
                   (oracle_row oracle size (Reftrace.Trace.merged c.trace)
                      ~data));
             List.init size (fun target ->
                 agrees (`Near target)
                   (Array.init size (oracle_distance oracle target)));
           ]))

let suite =
  [
    Gen.case "of_cost_vector sorted" test_of_cost_vector_sorted;
    Gen.to_alcotest prop_nearest_free_is_list_head;
    Gen.case "for_data head is center" test_for_data_head_is_center;
    Gen.case "first_available skips full" test_first_available_skips_full;
    Gen.case "assign allocates" test_assign_allocates;
    Gen.to_alcotest prop_full_list_always_assignable;
  ]
