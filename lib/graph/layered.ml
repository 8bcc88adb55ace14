type buffer = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type shape = { cols : int; rows : int; wrap : bool }

type group_member = {
  g_shape : shape;
  g_vectors : buffer;
  g_offsets : int array;
}

let inf = max_int

(* DP work counters, reported once per solve (see DESIGN.md
   "Observability"): a node is expanded when it is a finite-cost source
   of a layer step, and an edge is one relaxation the solver actually
   performs — one (source, target) pair for the table form, one unit
   step of a sweep for the separable core. Totals are
   per-datum and therefore independent of how solves are fanned out
   across domains. *)
let report_solve ~nodes ~edges =
  if !Obs.enabled then begin
    Obs.Metrics.incr "layered.solves";
    Obs.Metrics.add "layered.nodes_expanded" nodes;
    Obs.Metrics.add "layered.edges_relaxed" edges
  end

let count_finite cur ~lo ~hi =
  let n = ref 0 in
  for j = lo to hi - 1 do
    if cur.(j) <> inf then incr n
  done;
  !n

(* The cheapest final node (lowest index on ties) and the walk back
   through the predecessor table — shared by every solver below. *)
let backtrack ~cur ~choice ~n_layers =
  let best = ref (-1) in
  for j = 0 to Array.length cur - 1 do
    if cur.(j) <> inf && (!best = -1 || cur.(j) < cur.(!best)) then best := j
  done;
  if !best = -1 then None
  else begin
    let centers = Array.make n_layers (-1) in
    centers.(n_layers - 1) <- !best;
    for layer = n_layers - 1 downto 1 do
      centers.(layer - 1) <- choice.(layer).(centers.(layer))
    done;
    Some (cur.(!best), centers)
  end

(* Row offsets of the layers in a flat vector buffer, checked: [offsets]
   as given (repeats allowed — a compact arena points every zero layer at
   one shared row), or back to back when omitted. *)
let layer_offsets ?offsets ~vectors ~width ~n_layers () =
  if n_layers <= 0 then invalid_arg "Layered: n_layers must be positive";
  if width <= 0 then invalid_arg "Layered: width must be positive";
  let dim = Bigarray.Array1.dim vectors in
  match offsets with
  | Some o ->
      if Array.length o < n_layers then
        invalid_arg "Layered: offset table shorter than n_layers";
      Array.iter
        (fun off ->
          if off < 0 || off + width > dim then
            invalid_arg "Layered: layer offset outside the vector buffer")
        o;
      o
  | None ->
      if dim < n_layers * width then
        invalid_arg "Layered: flat vector buffer shorter than n_layers x width";
      Array.init n_layers (fun w -> w * width)

(* Layer 0: the entry costs, on allowed nodes only. *)
let enter ~cur ~base ~width ~(vectors : buffer) ~off ~add ~allowed =
  for j = 0 to width - 1 do
    let g = base + j in
    cur.(g) <-
      (match allowed with
      | Some ok when not (ok ~layer:0 g) -> inf
      | _ -> vectors.{off + j} + add)
  done

(* Close a layer step on one block: a target keeps its relaxed cost plus
   its own vector entry iff it was reached and [allowed] admits it. *)
let settle ~cur ~best ~from ~ch ~base ~width ~(vectors : buffer) ~off ~add
    ~allowed ~layer =
  for k = 0 to width - 1 do
    let g = base + k in
    let b = best.(g) in
    if b <> inf && match allowed with None -> true | Some ok -> ok ~layer g
    then begin
      cur.(g) <- b + vectors.{off + k} + add;
      ch.(g) <- from.(g)
    end
    else cur.(g) <- inf
  done

(* ------------------------------------------------------------------ *)
(* The separable core: an exact L1 distance transform per layer         *)
(* ------------------------------------------------------------------ *)

(* The core works on packed keys: a cell holding cost [c] from source
   rank [r] is the single int [(c lsl shift) lor r], with every rank of
   the layer below [1 lsl shift]. Integer order on keys is then the
   lexicographic order on (cost, rank), and a unit step adds [unit =
   1 lsl shift]. [none] marks a cell no source reaches; [none + unit]
   cannot overflow, and loses to every real key. *)
let none = max_int lsr 1

(* One unit step of a ring seam: offer [key.(src) + unit] to [dst];
   [true] iff [dst] improved. *)
let step key ~unit src dst =
  let c = key.(src) + unit in
  c < key.(dst)
  && begin
       key.(dst) <- c;
       true
     end

(* A full pass of steps from cell [first] to cell [last], [stride] apart
   (negative for a backward pass), each cell relaxed from its
   predecessor, whose key rides in a register. *)
let pass key ~unit ~first ~last ~stride =
  let prev = ref key.(first) in
  let i = ref (first + stride) in
  let stop = last + stride in
  while !i <> stop do
    let g = !i in
    let c = !prev + unit and d = key.(g) in
    if c < d then begin
      key.(g) <- c;
      prev := c
    end
    else prev := d;
    i := g + stride
  done

(* The 1-D transform of one line of [n] cells at [base], [base + stride],
   ...: afterwards every cell holds the least key over all cells i of
   key(i) + d(i, k)·unit, with d the unit line distance |i - k|, or the
   ring distance min(|i - k|, n - |i - k|) when [wrap]. A forward then a
   backward pass; a ring continues each pass across the seam until a
   step changes nothing (at most n - 2 more steps — no [mod] per step).
   Rings of extent <= 2 are lines. Returns the number of steps taken. *)
let sweep key ~unit ~base ~stride ~n ~wrap =
  let last = base + ((n - 1) * stride) in
  let ring = wrap && n > 2 in
  let steps = ref (2 * (n - 1)) in
  if n > 1 then pass key ~unit ~first:base ~last ~stride;
  if ring then begin
    incr steps;
    let i = ref (base + stride) in
    let go = ref (step key ~unit last base) in
    while !go && !i < last do
      incr steps;
      go := step key ~unit (!i - stride) !i;
      i := !i + stride
    done
  end;
  if n > 1 then pass key ~unit ~first:last ~last:base ~stride:(-stride);
  if ring then begin
    incr steps;
    let i = ref (last - stride) in
    let go = ref (step key ~unit base last) in
    while !go && !i > base do
      incr steps;
      go := step key ~unit (!i + stride) !i;
      i := !i - stride
    done
  end;
  !steps

(* One layer step of the separable core on the block at [base]: for
   every target k, [best.(k)] and [from.(k)] become the lexicographic
   minimum over sources j of (cur(j) + dist(j, k), j) — an x pass along
   each row, then a y pass along each column, on packed keys built in
   [best]. Costs are packed relative to the block's cheapest source m:
   a source dearer than m by more than [cols + rows] (above any
   distance) loses to m at every target, ties included, so it is left
   out and the relative costs stay small. Returns the steps taken. *)
let relax_block { cols; rows; wrap } ~cur ~best ~from ~base =
  let hi = base + (cols * rows) in
  let lo = ref inf in
  for g = base to hi - 1 do
    if cur.(g) < !lo then lo := cur.(g)
  done;
  let lo = !lo in
  if lo = inf then begin
    Array.fill best base (hi - base) inf;
    0
  end
  else begin
    let shift = ref 0 in
    while 1 lsl !shift < hi do
      incr shift
    done;
    let shift = !shift and reach = cols + rows in
    let unit = 1 lsl shift in
    for g = base to hi - 1 do
      let c = cur.(g) in
      best.(g) <-
        (if c = inf || c - lo > reach then none else ((c - lo) lsl shift) lor g)
    done;
    let steps = ref 0 in
    for y = 0 to rows - 1 do
      steps :=
        !steps + sweep best ~unit ~base:(base + (y * cols)) ~stride:1 ~n:cols ~wrap
    done;
    for x = 0 to cols - 1 do
      steps :=
        !steps + sweep best ~unit ~base:(base + x) ~stride:cols ~n:rows ~wrap
    done;
    (* m reaches every target, so no key is left at [none] *)
    for g = base to hi - 1 do
      let k = best.(g) in
      from.(g) <- k land (unit - 1);
      best.(g) <- (k lsr shift) + lo
    done;
    !steps
  end

let check_shape { cols; rows; _ } =
  if cols <= 0 || rows <= 0 then
    invalid_arg "Layered: mesh extents must be positive";
  cols * rows

(* The layer loop of the single-array solvers: [relax ~cur ~best ~from]
   performs one layer step — for every target, the cheapest source
   (lowest index on ties) into [best]/[from] — and returns the
   relaxations it made. *)
let run_layers ~relax ?allowed ?offsets ~width ~vectors ~n_layers () =
  let offs = layer_offsets ?offsets ~vectors ~width ~n_layers () in
  Obs.Span.with_ ~name:"layered.solve" @@ fun () ->
  let cur = Array.make width inf in
  let choice = Array.make_matrix n_layers width (-1) in
  enter ~cur ~base:0 ~width ~vectors ~off:offs.(0) ~add:0 ~allowed;
  let best = Array.make width inf in
  let from = Array.make width (-1) in
  let nodes = ref 0 and edges = ref 0 in
  for layer = 1 to n_layers - 1 do
    nodes := !nodes + count_finite cur ~lo:0 ~hi:width;
    edges := !edges + relax ~cur ~best ~from;
    settle ~cur ~best ~from ~ch:choice.(layer) ~base:0 ~width ~vectors
      ~off:offs.(layer) ~add:0 ~allowed ~layer
  done;
  report_solve ~nodes:!nodes ~edges:!edges;
  backtrack ~cur ~choice ~n_layers

let solve_axes ?allowed ?offsets ~shape ~vectors ~n_layers () =
  run_layers
    ~relax:(relax_block shape ~base:0)
    ?allowed ?offsets ~width:(check_shape shape) ~vectors ~n_layers ()

(* ------------------------------------------------------------------ *)
(* The table fallback (link-fault BFS distances)                        *)
(* ------------------------------------------------------------------ *)

(* One layer step over an explicit [width]×[width] distance table:
   sources j ascending, targets k ascending, strict [<] — so for every
   target the kept source is again the lexicographic minimum of
   (cost, j). Straight table reads, no closure per edge. *)
let relax_table dist ~cur ~best ~from =
  let width = Array.length dist in
  Array.fill best 0 width inf;
  let edges = ref 0 in
  for j = 0 to width - 1 do
    let dj = cur.(j) in
    if dj <> inf then begin
      edges := !edges + width;
      let row = dist.(j) in
      for k = 0 to width - 1 do
        let c = dj + row.(k) in
        if c < best.(k) then begin
          best.(k) <- c;
          from.(k) <- j
        end
      done
    end
  done;
  !edges

let solve_table ?allowed ?offsets ~dist ~vectors ~n_layers () =
  run_layers ~relax:(relax_table dist) ?allowed ?offsets
    ~width:(Array.length dist) ~vectors ~n_layers ()

(* ------------------------------------------------------------------ *)
(* Array groups                                                         *)
(* ------------------------------------------------------------------ *)

(* Multi-array form: the layer is the disjoint union of member blocks
   (one per PIM array), each with its own mesh shape and arena slab,
   concatenated in member order so a global node index is
   [base.(i) + local]. Within a block the relaxation is the separable
   core on that block. Between blocks the inter-array fabric is a flat
   metric — every node of member [jm] reaches every node of member [i]
   at the same price [move_cost jm i] — so the cross product of block
   nodes collapses to one scalar edge per ordered member pair: take each
   source member's entry minimum (lowest global rank on ties), add the
   member-pair move cost, and offer it to every node of the target
   block. Cross edges are applied after the intra pass with a strict
   [<], sources visited in ascending member order, so staying inside
   the member wins every tie and a 1-member group is byte-identical to
   [solve_axes]. *)
let solve_group ~members ~move_cost ~consts ~n_layers ~allowed () =
  let n_members = Array.length members in
  if n_members <= 0 then invalid_arg "Layered: members must be nonempty";
  if n_layers <= 0 then invalid_arg "Layered: n_layers must be positive";
  let widths = Array.map (fun m -> check_shape m.g_shape) members in
  let offs =
    Array.mapi
      (fun i m ->
        layer_offsets ~offsets:m.g_offsets ~vectors:m.g_vectors
          ~width:widths.(i) ~n_layers ())
      members
  in
  let bases = Array.make (n_members + 1) 0 in
  for i = 0 to n_members - 1 do
    bases.(i + 1) <- bases.(i) + widths.(i)
  done;
  let total = bases.(n_members) in
  Obs.Span.with_ ~name:"layered.solve_group" @@ fun () ->
  let allowed = Some allowed in
  let cur = Array.make total inf in
  let choice = Array.make_matrix n_layers total (-1) in
  for i = 0 to n_members - 1 do
    enter ~cur ~base:bases.(i) ~width:widths.(i) ~vectors:members.(i).g_vectors
      ~off:offs.(i).(0) ~add:(consts ~layer:0 ~member:i) ~allowed
  done;
  let best = Array.make total inf in
  let from = Array.make total (-1) in
  let minv = Array.make n_members inf in
  let minr = Array.make n_members (-1) in
  let nodes = ref 0 and edges = ref 0 in
  for layer = 1 to n_layers - 1 do
    nodes := !nodes + count_finite cur ~lo:0 ~hi:total;
    (* per-member entry minima over the previous layer: the single source
       every outgoing cross edge of that member reroots at (lowest global
       rank on ties, matching the ascending scans everywhere else) *)
    for i = 0 to n_members - 1 do
      minv.(i) <- inf;
      minr.(i) <- -1;
      for g = bases.(i) to bases.(i + 1) - 1 do
        if cur.(g) < minv.(i) then begin
          minv.(i) <- cur.(g);
          minr.(i) <- g
        end
      done
    done;
    for i = 0 to n_members - 1 do
      edges :=
        !edges
        + relax_block members.(i).g_shape ~cur ~best ~from ~base:bases.(i)
    done;
    for i = 0 to n_members - 1 do
      let cv = ref inf and cf = ref (-1) in
      for jm = 0 to n_members - 1 do
        if jm <> i && minv.(jm) <> inf then begin
          incr edges;
          let c = minv.(jm) + move_cost jm i in
          if c < !cv then begin
            cv := c;
            cf := minr.(jm)
          end
        end
      done;
      if !cf >= 0 then
        for g = bases.(i) to bases.(i + 1) - 1 do
          if !cv < best.(g) then begin
            best.(g) <- !cv;
            from.(g) <- !cf
          end
        done
    done;
    for i = 0 to n_members - 1 do
      settle ~cur ~best ~from ~ch:choice.(layer) ~base:bases.(i)
        ~width:widths.(i) ~vectors:members.(i).g_vectors
        ~off:offs.(i).(layer) ~add:(consts ~layer ~member:i) ~allowed ~layer
    done
  done;
  report_solve ~nodes:!nodes ~edges:!edges;
  backtrack ~cur ~choice ~n_layers
