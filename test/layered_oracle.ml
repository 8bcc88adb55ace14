(* Dense O(width²)-per-layer reference solvers for the layered DP — the
   oracles the production solvers in [Pathgraph.Layered] are pinned to.
   Test-only: every relaxation is an explicit (source, target) scan over
   full tables, with no separable shortcut and no flat buffers. *)

let inf = max_int

let backtrack ~cur ~choice ~n_layers =
  let best_node = ref (-1) in
  for j = 0 to Array.length cur - 1 do
    if cur.(j) <> inf && (!best_node = -1 || cur.(j) < cur.(!best_node)) then
      best_node := j
  done;
  if !best_node = -1 then None
  else begin
    let centers = Array.make n_layers (-1) in
    centers.(n_layers - 1) <- !best_node;
    for layer = n_layers - 1 downto 1 do
      centers.(layer - 1) <- choice.(layer).(centers.(layer))
    done;
    Some (cur.(!best_node), centers)
  end

(* [solve_dense_filtered ~dist ~vectors ~allowed]: enter = vectors.(0),
   step = dist.(j).(k) + vectors.(layer).(k), sources j ascending and
   targets k ascending with a strict [<] — the lowest-index cheapest
   predecessor wins every tie. [None] when [allowed] empties a layer. *)
let solve_dense_filtered ~dist ~vectors ~allowed =
  let n_layers = Array.length vectors in
  let width = Array.length vectors.(0) in
  let cur = Array.make width inf in
  let choice = Array.make_matrix n_layers width (-1) in
  for j = 0 to width - 1 do
    if allowed ~layer:0 j then cur.(j) <- vectors.(0).(j)
  done;
  let best = Array.make width inf in
  let from = Array.make width (-1) in
  for layer = 1 to n_layers - 1 do
    Array.fill best 0 width inf;
    for j = 0 to width - 1 do
      let dj = cur.(j) in
      if dj <> inf then
        for k = 0 to width - 1 do
          let c = dj + dist.(j).(k) in
          if c < best.(k) then begin
            best.(k) <- c;
            from.(k) <- j
          end
        done
    done;
    for k = 0 to width - 1 do
      if best.(k) <> inf && allowed ~layer k then begin
        cur.(k) <- best.(k) + vectors.(layer).(k);
        choice.(layer).(k) <- from.(k)
      end
      else cur.(k) <- inf
    done
  done;
  backtrack ~cur ~choice ~n_layers

let solve_dense ~dist ~vectors =
  Option.get
    (solve_dense_filtered ~dist ~vectors ~allowed:(fun ~layer:_ _ -> true))

(* Whole-group oracle for [Layered.solve_group]: one dense relaxation over
   the concatenated member blocks. [member.(g)] is the member of global
   node [g]; [intra a b] prices a step inside one member and
   [move_cost src dst] one between members; [consts ~layer ~member] is
   added to every node of the member. Each target scans its own member's
   sources first, then every other source, all ascending with a strict
   [<] — staying inside the member wins ties, as the contract says. *)
let solve_group_dense ~member ~intra ~move_cost ~consts ~vectors ~allowed =
  let n_layers = Array.length vectors in
  let total = Array.length member in
  let node_cost layer g = vectors.(layer).(g) + consts ~layer ~member:member.(g) in
  let cur = Array.make total inf in
  let choice = Array.make_matrix n_layers total (-1) in
  for g = 0 to total - 1 do
    if allowed ~layer:0 g then cur.(g) <- node_cost 0 g
  done;
  let next = Array.make total inf in
  for layer = 1 to n_layers - 1 do
    for k = 0 to total - 1 do
      let best = ref inf and from = ref (-1) in
      let offer j =
        if cur.(j) <> inf then begin
          let d =
            if member.(j) = member.(k) then intra j k
            else move_cost member.(j) member.(k)
          in
          if cur.(j) + d < !best then begin
            best := cur.(j) + d;
            from := j
          end
        end
      in
      for j = 0 to total - 1 do
        if member.(j) = member.(k) then offer j
      done;
      for j = 0 to total - 1 do
        if member.(j) <> member.(k) then offer j
      done;
      if !best <> inf && allowed ~layer k then begin
        next.(k) <- !best + node_cost layer k;
        choice.(layer).(k) <- !from
      end
      else next.(k) <- inf
    done;
    Array.blit next 0 cur 0 total
  done;
  backtrack ~cur ~choice ~n_layers
