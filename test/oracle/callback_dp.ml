type problem = {
  n_layers : int;
  width : int;
  enter_cost : int -> int;
  step_cost : layer:int -> int -> int -> int;
}

let inf = max_int

let check p =
  if p.n_layers <= 0 then invalid_arg "Layered: n_layers must be positive";
  if p.width <= 0 then invalid_arg "Layered: width must be positive"

(* Forward DP over layers. [dist.(j)] is the best cost of reaching node [j]
   of the current layer; [choice.(layer).(j)] records the predecessor. *)
let solve_filtered p ~allowed =
  check p;
  let dist = Array.make p.width inf in
  let choice = Array.make_matrix p.n_layers p.width (-1) in
  for j = 0 to p.width - 1 do
    if allowed ~layer:0 j then dist.(j) <- p.enter_cost j
  done;
  for layer = 1 to p.n_layers - 1 do
    let next = Array.make p.width inf in
    for k = 0 to p.width - 1 do
      if allowed ~layer k then
        for j = 0 to p.width - 1 do
          if dist.(j) <> inf then begin
            let c = dist.(j) + p.step_cost ~layer j k in
            if c < next.(k) then begin
              next.(k) <- c;
              choice.(layer).(k) <- j
            end
          end
        done
    done;
    Array.blit next 0 dist 0 p.width
  done;
  let best = ref (-1) in
  for j = 0 to p.width - 1 do
    if dist.(j) <> inf && (!best = -1 || dist.(j) < dist.(!best)) then
      best := j
  done;
  if !best = -1 then None
  else begin
    let centers = Array.make p.n_layers (-1) in
    centers.(p.n_layers - 1) <- !best;
    for layer = p.n_layers - 1 downto 1 do
      centers.(layer - 1) <- choice.(layer).(centers.(layer))
    done;
    Some (dist.(!best), centers)
  end

let solve p =
  match solve_filtered p ~allowed:(fun ~layer:_ _ -> true) with
  | Some r -> r
  | None -> assert false (* unrestricted problem is always feasible *)

let to_digraph p =
  check p;
  let node_id ~layer j = 2 + (layer * p.width) + j in
  let source = 0 and sink = 1 in
  let g = Digraph.create ~n_nodes:(2 + (p.n_layers * p.width)) in
  for j = 0 to p.width - 1 do
    Digraph.add_edge g ~src:source ~dst:(node_id ~layer:0 j)
      ~weight:(p.enter_cost j)
  done;
  for layer = 1 to p.n_layers - 1 do
    for j = 0 to p.width - 1 do
      for k = 0 to p.width - 1 do
        Digraph.add_edge g
          ~src:(node_id ~layer:(layer - 1) j)
          ~dst:(node_id ~layer k)
          ~weight:(p.step_cost ~layer j k)
      done
    done
  done;
  for j = 0 to p.width - 1 do
    Digraph.add_edge g ~src:(node_id ~layer:(p.n_layers - 1) j) ~dst:sink
      ~weight:0
  done;
  (g, source, sink, node_id)

let gomcds_problem mesh trace ~data =
  let windows = Array.of_list (Reftrace.Trace.windows trace) in
  let vectors =
    Array.map (fun w -> Naive_cost.cost_vector mesh w ~data) windows
  in
  {
    n_layers = Array.length windows;
    width = Pim.Mesh.size mesh;
    enter_cost = (fun j -> vectors.(0).(j));
    step_cost =
      (fun ~layer j k -> Pim.Mesh.distance mesh j k + vectors.(layer).(k));
  }

let optimal_centers mesh trace ~data = solve (gomcds_problem mesh trace ~data)
let cost_graph mesh trace ~data = to_digraph (gomcds_problem mesh trace ~data)
