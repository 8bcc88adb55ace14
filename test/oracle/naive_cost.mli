(** The paper's cost model evaluated directly — the executable
    specification {!Sched.Cost} and the {!Sched.Problem} arena are pinned
    to. Every cost vector walks the datum's full reference profile once
    per candidate center, O(P · refs). Semantics, including tie order and
    error behaviour, match {!Sched.Cost}. *)

(** [distance_table m] is the full rank-to-rank distance matrix:
    [(distance_table m).(a).(b) = Pim.Mesh.distance m a b]. Costs
    [size m]² words. *)
val distance_table : Pim.Mesh.t -> int array array

val reference_cost :
  Pim.Mesh.t -> Reftrace.Window.t -> data:int -> center:int -> int

val cost_vector : Pim.Mesh.t -> Reftrace.Window.t -> data:int -> int array

(** Lowest-rank minimum of {!cost_vector} by an ascending scan. *)
val local_optimal_center : Pim.Mesh.t -> Reftrace.Window.t -> data:int -> int

val movement_cost : Pim.Mesh.t -> from_:int -> to_:int -> int

(** @raise Invalid_argument on an empty window list. *)
val path_cost : Pim.Mesh.t -> (Reftrace.Window.t * int) list -> data:int -> int
