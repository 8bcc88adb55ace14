(** The layered shortest-path DP in callback form, and the paper's
    GOMCDS cost-graph built from it — the generic reference the
    production solvers ({!Pathgraph.Layered.solve_axes} and
    {!Sched.Problem.solve_layers}) are pinned to.

    Edge weights are closures, so a solve costs O(n_layers · width²)
    calls; {!to_digraph} materializes the same problem as an explicit
    DAG for a second cross-check through {!Shortest_path}. Ties break
    like the production core: each node keeps the lowest-index cheapest
    predecessor, and the path ends at the lowest-index cheapest node of
    the last layer. *)

type problem = {
  n_layers : int;  (** number of layers (execution windows) *)
  width : int;  (** nodes per layer (processors) *)
  enter_cost : int -> int;
      (** [enter_cost j] — weight of the source → (layer 0, node j) edge *)
  step_cost : layer:int -> int -> int -> int;
      (** [step_cost ~layer j k] — weight of (layer - 1, node j) →
          (layer, node k); [1 <= layer <= n_layers - 1] *)
}

(** [solve_filtered p ~allowed] is the forward DP restricted to nodes
    [j] of layer [i] with [allowed ~layer:i j]; [None] when no path
    exists. @raise Invalid_argument if [n_layers <= 0] or [width <= 0]. *)
val solve_filtered :
  problem -> allowed:(layer:int -> int -> bool) -> (int * int array) option

(** [solve p] is the minimal source→sink cost and its witness, one node
    per layer. @raise Invalid_argument as {!solve_filtered}. *)
val solve : problem -> int * int array

(** [to_digraph p] is [(graph, source, sink, node_id)]: the cost-graph
    exactly as the paper draws it (pseudo source, pseudo sink,
    zero-weight edges into the sink), with [node_id ~layer j] the graph
    node of processor [j] in window [layer]. *)
val to_digraph : problem -> Digraph.t * int * int * (layer:int -> int -> int)

(** [gomcds_problem mesh trace ~data] is the GOMCDS problem for one
    datum: each window's {!Naive_cost.cost_vector} on the nodes, the
    routing distance on the edges. *)
val gomcds_problem : Pim.Mesh.t -> Reftrace.Trace.t -> data:int -> problem

(** [optimal_centers mesh trace ~data] is {!solve} of {!gomcds_problem}:
    the unconstrained per-window center sequence and its total
    (reference + movement) cost. *)
val optimal_centers :
  Pim.Mesh.t -> Reftrace.Trace.t -> data:int -> int * int array

(** [cost_graph mesh trace ~data] is {!to_digraph} of {!gomcds_problem}. *)
val cost_graph :
  Pim.Mesh.t ->
  Reftrace.Trace.t ->
  data:int ->
  Digraph.t * int * int * (layer:int -> int -> int)
