(* How one solve is built and run, untraced or decomposed into the
   program's layers. The traced form calls the same public functions the
   algorithms are made of, in the same order, with a span around each;
   every traced plan is checked against the same digest as the untraced
   one, which is what shows the decomposition computes the same
   schedule. *)

open Sched

(* Domain-pool size of every session and of the daemon. Set once, per
   workload, before the workload starts (see bench.ml). *)
let jobs = ref 2

(* The generated workloads, spelled as the CLI and the serve protocol
   spell them, with the protocol's default partition. *)
let build_trace workload ~n mesh =
  let partition = Workloads.Iteration_space.Block_2d in
  match workload with
  | "stencil" -> Workloads.Stencil.trace ~partition ~n ~sweeps:8 mesh
  | "cholesky" -> Workloads.Cholesky.trace ~partition ~n mesh
  | "reduction" ->
      Workloads.Reduction.trace ~partition ~n ~bins:(Pim.Mesh.size mesh) mesh
  | label ->
      Workloads.Benchmarks.trace ~partition
        (Workloads.Benchmarks.of_label label)
        ~n mesh

let build_mesh ~rows ~cols ~torus =
  if torus then Pim.Mesh.torus ~rows ~cols else Pim.Mesh.create ~rows ~cols

(* The paper's headroom-2 capacity rule, as the CLI and server apply it. *)
let policy ~bounded trace mesh =
  if bounded then
    Problem.Bounded
      (Pim.Memory.capacity_for
         ~data_count:(Reftrace.Data_space.size (Reftrace.Trace.space trace))
         ~mesh ~headroom:2)
  else Problem.Unbounded

let plan_digest plan = Digest.to_hex (Digest.string plan)

(* ---------------------------------------------------------------- *)
(* Untraced                                                          *)
(* ---------------------------------------------------------------- *)

(* One cold one-shot solve: session, solve, accounting and plan render. *)
let solve_cold ~policy ~fault mesh trace algorithm =
  let ctx = Context.create ~policy ~jobs:!jobs mesh trace in
  let p = Problem.of_context ~fault ctx in
  let schedule = Scheduler.solve p algorithm in
  let cost = Schedule.cost schedule trace in
  (schedule, cost, Schedule_serial.to_string schedule)

(* ---------------------------------------------------------------- *)
(* Traced decomposition of Scheduler.solve                           *)
(* ---------------------------------------------------------------- *)

(* The program's own spans inside [Scheduler.solve] that become layers,
   by name. Only spans of the calling domain count: a layer whose body
   fans out on the pool is its span on the caller, and spans its workers
   open are left inside it. *)
let program_layers =
  [
    "problem.prefetch_all";
    "problem.prefetch_referenced";
    "problem.prefetch_centers";
    "problem.prefetch_merged";
    "grouping.partitions";
  ]

let edges_now () =
  Obs.Metrics.counter (Obs.Metrics.snapshot ()) "layered.edges_relaxed"

(* [solve_layers tr p algorithm] is [Scheduler.solve p algorithm], split
   into layers by the spans the program records on the calling domain
   (with [Obs] on for the solve): the fills and "grouping.partitions"
   keep their names; the serial DP calls bounded GOMCDS makes inside "gomcds.place"
   are "layered.solve"; what remains of the solve is "scheduler.place",
   except for unbounded GOMCDS, where it is the DP fan-out and so
   "layered.solve". Spans nested deeper (the DP inside grouping, the
   workers' spans) stay in the layer around them. The DP edges relaxed
   during the solve are added to the layer that ran the DP. *)
let solve_layers tr p algorithm =
  Obs.Span.reset ();
  let e0 = edges_now () in
  let schedule = Obs.with_enabled (fun () -> Scheduler.solve p algorithm) in
  let edges = float_of_int (edges_now () - e0) in
  let self = (Domain.self () :> int) in
  let spans =
    List.filter (fun (s : Obs.Span.completed) -> s.domain = self) (Obs.Span.spans ())
  in
  Obs.Span.reset ();
  let gomcds = algorithm = Scheduler.Gomcds in
  let bounded = Problem.capacity p <> None in
  let root_name = "scheduler." ^ Scheduler.name algorithm in
  let root =
    List.find (fun (s : Obs.Span.completed) -> s.parent = -1 && s.name = root_name) spans
  in
  let add ?parent name (s : Obs.Span.completed) =
    Tracer.record tr ?parent name ~start:(s.start_us *. 1e-6)
      ~stop:((s.start_us +. s.dur_us) *. 1e-6)
  in
  let children_of (s : Obs.Span.completed) =
    List.filter (fun (c : Obs.Span.completed) -> c.parent = s.id) spans
  in
  let root_id =
    add (if gomcds && not bounded then "layered.solve" else "scheduler.place") root
  in
  List.iter
    (fun (c : Obs.Span.completed) ->
      if List.mem c.name program_layers then ignore (add ~parent:root_id c.name c)
      else if c.name = "gomcds.place" then begin
        let place = add ~parent:root_id "scheduler.place" c in
        List.iter
          (fun (d : Obs.Span.completed) ->
            if d.name = "layered.solve" then ignore (add ~parent:place "layered.solve" d))
          (children_of c)
      end)
    (children_of root);
  Tracer.add tr (if gomcds then "layered.edges_relaxed" else "grouping.edges_relaxed") edges;
  schedule

(* [traced_solve tr p algorithm] is [Scheduler.solve p algorithm] split
   into the program's layers. Every algorithm calls the arena or cache
   fill it reads in a span of its own, except unbounded GOMCDS, which
   fills each datum's rows lazily inside its DP: that fill is called here
   first, datum by datum on the pool, so that it is not counted as DP. *)
let traced_solve tr p algorithm =
  if algorithm = Scheduler.Gomcds && Problem.capacity p = None then
    Tracer.with_ tr "problem.prefetch_data" (fun () ->
        Engine.iter ~jobs:(Problem.jobs p) (Problem.n_data p) (fun data ->
            Problem.prefetch_data p ~data));
  solve_layers tr p algorithm

(* The traced form of [solve_cold]. *)
let solve_traced tr ~policy ~fault mesh trace algorithm =
  let span name f = Tracer.with_ tr name f in
  let ctx =
    span "context.create" (fun () -> Context.create ~policy ~jobs:!jobs mesh trace)
  in
  let p = span "problem.of_context" (fun () -> Problem.of_context ~fault ctx) in
  let schedule = traced_solve tr p algorithm in
  let cost = span "schedule.cost" (fun () -> Schedule.cost schedule trace) in
  let plan =
    span "schedule.render" (fun () -> Schedule_serial.to_string schedule)
  in
  (schedule, cost, plan)

(* ---------------------------------------------------------------- *)
(* Per-layer report                                                  *)
(* ---------------------------------------------------------------- *)

(* The span layers every traced run reports, as "<name>.self_ms". *)
let span_layers =
  [
    "workloads.trace";
    "context.create";
    "problem.of_context";
    "problem.with_fault_patch";
    "problem.prefetch_all";
    "problem.prefetch_data";
    "problem.prefetch_referenced";
    "problem.prefetch_merged";
    "problem.prefetch_centers";
    "layered.solve";
    "grouping.partitions";
    "scheduler.place";
    "schedule.cost";
    "schedule.render";
    "sim.timed_run";
    "multi.solve";
    "other";
  ]

(* Mean self milliseconds per op for every span layer, the DP edges
   relaxed inside the "layered.solve" and "grouping.partitions" layers
   (wall nanoseconds per edge of the first: on unbounded instances the
   layer's wall spans the fan-out on the pool), plus the counts read from
   the program's Obs counters over the traced ops. *)
let layer_metrics tr ~ops ~op_wall_s (snap : Obs.Metrics.snapshot) =
  let per_op x = if ops = 0 then 0. else x /. float_of_int ops in
  let self = Tracer.self_by_name tr in
  let self_s name = Option.value ~default:0. (Hashtbl.find_opt self name) in
  let counter name = float_of_int (Obs.Metrics.counter snap name) in
  let ratio a b = if b = 0. then 0. else a /. b in
  List.map
    (fun name -> (name ^ ".self_ms", per_op (1e3 *. self_s name), "ms"))
    span_layers
  @ [
      ("context.create.calls", per_op (float_of_int (Tracer.count tr "context.create")), "1/op");
      ("cost.separable_builds", per_op (counter "cost.separable_builds"), "1/op");
      ("problem.arena_bytes", per_op (counter "problem.arena_bytes"), "B/op");
      ("layered.edges_relaxed", per_op (Tracer.total tr "layered.edges_relaxed"), "1/op");
      ( "layered.ns_per_edge",
        ratio (1e9 *. self_s "layered.solve") (Tracer.total tr "layered.edges_relaxed"),
        "wall_ns/edge" );
      ("grouping.edges_relaxed", per_op (Tracer.total tr "grouping.edges_relaxed"), "1/op");
      ( "grouping.merge_accept_ratio",
        ratio (counter "grouping.merges_accepted") (counter "grouping.merge_attempts"),
        "ratio" );
      ( "engine.worker_busy_ratio",
        ratio (counter "engine.worker_busy_us")
          (float_of_int !jobs *. 1e6 *. op_wall_s),
        "ratio" );
      ("engine.tasks", per_op (counter "engine.tasks"), "1/op");
      ("sim.cycles", per_op (counter "sim.cycles"), "1/op");
      ("trace.op_ms", per_op (1e3 *. op_wall_s), "ms");
    ]

(* Runs [f] with the program's Obs counters on and returns their
   snapshot. Obs also records the program's own spans while on; the span
   log is dropped after every op so it cannot grow with the run. *)
let with_counters f =
  Obs.reset ();
  let r = Obs.with_enabled f in
  let snap = Obs.Metrics.snapshot () in
  Obs.reset ();
  (r, snap)
