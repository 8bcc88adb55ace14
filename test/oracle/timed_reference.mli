(** The pre-model timed engine, retained verbatim as the pinned oracle of
    the differential suite: bandwidth-1 store-and-forward with unbounded
    queues and free compute. [Pim.Timed_simulator.run
    ~model:Pim.Link_model.degenerate] must reproduce these reports
    byte-identically — field by field, including the legacy utilization
    float. It still carries the O(n²) [List.mem] activation scan the live
    engine replaced with a hash-set, so don't call it on a hot path. *)

type round_report = {
  round : int;
  cycles : int;
  messages : int;
  volume_hops : int;
  utilization : float;
}

type report = {
  rounds : round_report list;
  total_cycles : int;
  total_volume_hops : int;
}

val run : ?fault:Pim.Fault.t -> Pim.Mesh.t -> Pim.Simulator.round list -> report

val round_makespan :
  ?fault:Pim.Fault.t -> Pim.Mesh.t -> Pim.Router.message list -> int
