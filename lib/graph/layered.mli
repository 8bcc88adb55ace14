(** Layered shortest-path DP, the shape of the GOMCDS cost-graph.

    A layered problem has [n_layers] layers of [width] nodes each, plus an
    implicit source before layer 0 and sink after the last layer. Node
    costs live in the layers' cost vectors; a step from layer to layer
    pays the distance between the two nodes. Every solver returns the
    minimal source→sink cost and one witness, breaking ties the same way:
    each node keeps the {e lowest-index} cheapest predecessor, and the
    path ends at the lowest-index cheapest node of the last layer.

    - {!solve_axes} is the production core. Because the step distance is
      the x-y routing distance of a mesh or torus — unit L1 per axis,
      circular on a torus — each layer's min-plus relaxation is an exact
      separable distance transform: O(width) per layer, O(windows·P) per
      datum (DESIGN.md §"Separable DP").
    - {!solve_table} is the fallback for distances that are not separable
      (link-fault BFS tables): O(width²) per layer, straight table reads.
    - {!solve_group} runs the core per member of a multi-array group.

    The dense and callback-form reference solvers these are pinned to
    live in the test-only oracle library. *)

(** Flat layer-vector buffer for the solvers: a 1-D [int]
    bigarray, so arena slabs can be allocated {e uninitialized} (only
    rows actually written cost memory traffic — an [int array] would
    zero-fill every row on allocation). *)
type buffer = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(** The shape of a row-major [rows]×[cols] processor array: node
    [j = y·cols + x], step distance [dx + dy] with each axis distance
    [|a - b|], or [min(|a - b|, extent - |a - b|)] when [wrap] (torus). *)
type shape = { cols : int; rows : int; wrap : bool }

(** [solve_axes ?allowed ?offsets ~shape ~vectors ~n_layers ()] is the
    layered DP whose step cost is the routing distance of [shape] and
    whose layer costs are rows of one flat buffer: layer [w] occupies
    [vectors.{offsets.(w)} .. vectors.{offsets.(w) + width - 1}] with
    [width = cols·rows]. Offsets may repeat — a compact arena slab from
    {!Sched.Problem.layer_slab} points every non-referencing layer at one
    shared zero row; when omitted the rows are back to back
    ([offsets.(w) = w·width]). [allowed ~layer j = false] removes node [j]
    from layer [layer] (applied to the targets of each step, and to
    layer 0).

    Each layer step is a lexicographic (cost, source index) distance
    transform — an x pass along every row, then a y pass along every
    column, each one forward and one backward sweep (circular on a
    torus) — so costs, predecessors and witnesses equal those of the
    dense O(width²) relaxation exactly. Returns [None] only when
    [allowed] empties some layer.
    @raise Invalid_argument on non-positive extents or [n_layers], an
    offset table shorter than [n_layers], an offset row outside the
    buffer, or (without [offsets]) a buffer shorter than
    [n_layers · width]. *)
val solve_axes :
  ?allowed:(layer:int -> int -> bool) ->
  ?offsets:int array ->
  shape:shape ->
  vectors:buffer ->
  n_layers:int ->
  unit ->
  (int * int array) option

(** [solve_table ?allowed ?offsets ~dist ~vectors ~n_layers ()] is
    {!solve_axes} with the step cost read from an explicit
    [width]×[width] table ([width = Array.length dist]) — the fallback
    for distances that do not separate by axis, such as the BFS table of
    a mesh with dead links. Same tie-breaking; O(width²) per layer.
    @raise Invalid_argument as {!solve_axes}. *)
val solve_table :
  ?allowed:(layer:int -> int -> bool) ->
  ?offsets:int array ->
  dist:int array array ->
  vectors:buffer ->
  n_layers:int ->
  unit ->
  (int * int array) option

(** One member block of a multi-array layered problem (see
    {!solve_group}): the member's mesh shape, its flat arena slab and the
    per-layer offset table into it — exactly the inputs {!solve_axes}
    takes for a single array. *)
type group_member = {
  g_shape : shape;
  g_vectors : buffer;  (** the member's flat layer-vector slab *)
  g_offsets : int array;  (** row offset of each layer in [g_vectors] *)
}

(** [solve_group ~members ~move_cost ~consts ~n_layers ~allowed ()] is the
    layered DP over a {e group} of PIM arrays: each layer is the disjoint
    union of the member blocks concatenated in member order (the global
    node index of member [i]'s local node [j] is
    [Σ_{i' < i} width(i') + j] — the {!Multi.Array_group} rank), and a
    trajectory may either step within its member (priced by the member's
    shape, exactly as {!solve_axes}) or migrate to any node of
    another member at the flat inter-array price [move_cost src dst]
    ([src]/[dst] are {e member} indices, only read for [src <> dst]).
    Because the inter-array metric is flat, the block-to-block cross
    product collapses to one scalar edge per ordered member pair — per
    layer the DP costs O(Σ width(i) + n_members²). [consts ~layer
    ~member] is added to every node of the member in that layer (the
    cross-array reference cost of hosting the datum there — a constant
    per member, see DESIGN.md §12).

    Tie-breaking: the intra-member relaxation runs first (the core's
    lowest-index rule); cross edges are applied after with a strict
    [<] (the source is each member's previous-layer entry minimum,
    lowest global rank on ties, members visited ascending), so staying
    inside a member beats migrating at equal cost, and a 1-member group
    with zero [consts] is byte-identical to {!solve_axes}. Returns
    [None] when [allowed] empties some layer.
    @raise Invalid_argument on empty [members], non-positive [n_layers]
    or member extents, or an offset row outside a member slab. *)
val solve_group :
  members:group_member array ->
  move_cost:(int -> int -> int) ->
  consts:(layer:int -> member:int -> int) ->
  n_layers:int ->
  allowed:(layer:int -> int -> bool) ->
  unit ->
  (int * int array) option
