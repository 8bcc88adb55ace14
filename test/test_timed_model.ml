(* Differential test-bed for the parameterized cycle-honest backend.

   Four pillars:
   - the degenerate Link_model (bandwidth 1, store-and-forward, unbounded
     queues, free compute) is pinned byte-identical to the retained
     pre-model engine (the oracle library's Timed_reference) — field by
     field, including the legacy utilization float — across every
     scheduler, both topologies, and healthy and faulty arrays;
   - QCheck invariants over random models and traffic: flit conservation,
     cycles >= ceil(load/bw) of the most loaded link and >= the longest
     single-packet serialized path, monotonicity in bandwidth and queue
     depth on shared routes, and energy additivity across rounds;
   - closed-form oracles: a lone message and 1-3 contending messages on a
     shared route are exactly the permutation flow-shop recurrence
     C(j,i) = max(C(j-1,i), C(j,i-1)) + ceil(v_j/bw) over their
     fragments, plus hand-checked crossing-traffic pins on tiny meshes;
   - backpressure under faults: detoured routes squeezed through a
     bottleneck link with depth-1 queues stall but never deadlock (the
     watchdog Deadlock exception must not fire). *)

module T = Pim.Timed_simulator
module LM = Pim.Link_model
module R = Pim_oracle.Timed_reference

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 0.))
let mesh44 = Gen.mesh44
let torus35 = Pim.Mesh.torus ~rows:3 ~cols:5
let msg = Pim.Router.message

(* Connected degradations, same shapes as test_fault's faulty_cases. *)
let fault_mesh =
  Pim.Fault.create ~dead_nodes:[ 10 ] ~dead_links:[ (0, 1); (5, 6) ] ()

let fault_torus =
  Pim.Fault.create ~dead_nodes:[ 7 ] ~dead_links:[ (0, 1); (0, 5); (11, 12) ] ()

let topo_cases =
  [
    ("mesh", mesh44, Pim.Fault.none);
    ("mesh faulty", mesh44, fault_mesh);
    ("torus", torus35, Pim.Fault.none);
    ("torus faulty", torus35, fault_torus);
  ]

(* ------------------------------------------------------------------ *)
(* Differential: degenerate model byte-identical to Reference          *)
(* ------------------------------------------------------------------ *)

let matches_reference ?fault mesh rounds =
  let n = T.run ?fault ~model:LM.degenerate mesh rounds in
  let o = R.run ?fault mesh rounds in
  n.T.total_cycles = o.R.total_cycles
  && n.T.total_volume_hops = o.R.total_volume_hops
  && List.length n.T.rounds = List.length o.R.rounds
  && List.for_all2
       (fun (nr : T.round_report) (orr : R.round_report) ->
         nr.round = orr.round && nr.cycles = orr.cycles
         && nr.messages = orr.messages
         && nr.volume_hops = orr.volume_hops
         (* byte-identical float: same formula over identical ints *)
         && Float.equal nr.utilization orr.utilization
         (* degenerate config: one flit per message, no backpressure *)
         && nr.flits = nr.messages
         && nr.queue_stall_cycles = 0
         && nr.compute_idle = 0)
       n.T.rounds o.R.rounds

(* A fixed multi-window trace that fits both topologies (ranks <= 14). *)
let fixed_trace mesh =
  Gen.trace mesh ~n_data:6
    [
      [ (0, 1, 2); (1, 5, 1); (2, 9, 3); (3, 12, 1); (0, 14, 2) ];
      [ (1, 3, 1); (4, 8, 2); (2, 2, 1); (5, 13, 2) ];
      [ (0, 0, 2); (3, 7, 1); (1, 11, 1); (4, 14, 3) ];
    ]

let test_differential_every_scheduler () =
  List.iter
    (fun (label, mesh, fault) ->
      let trace = fixed_trace mesh in
      let problem = Sched.Problem.create ~fault mesh trace in
      List.iter
        (fun algo ->
          let schedule = Sched.Scheduler.solve problem algo in
          let rounds = Sched.Schedule.to_rounds schedule trace in
          check_bool
            (Printf.sprintf "degenerate = reference: %s, %s" label
               (Sched.Scheduler.name algo))
            true
            (matches_reference ~fault mesh rounds))
        Sched.Scheduler.all)
    topo_cases

let prop_differential_random_traces (label, mesh, fault) =
  let arb =
    Gen.trace_arbitrary ~mesh ~max_data:6 ~max_windows:4 ~max_count:3 ()
  in
  QCheck.Test.make
    ~name:("degenerate model = reference engine, random traces, " ^ label)
    ~count:20 arb
    (fun trace ->
      let problem = Sched.Problem.create ~fault mesh trace in
      let schedule = Sched.Scheduler.solve problem Sched.Scheduler.Gomcds in
      let rounds = Sched.Schedule.to_rounds schedule trace in
      matches_reference ~fault mesh rounds)

let random_messages_arbitrary =
  let gen =
    let open QCheck.Gen in
    list_size (int_range 1 12)
      (triple (int_bound 15) (int_bound 15) (int_range 1 4))
    >>= fun specs ->
    return (List.map (fun (src, dst, volume) -> msg ~src ~dst ~volume) specs)
  in
  QCheck.make
    ~print:(fun msgs ->
      String.concat "; "
        (List.map (Format.asprintf "%a" Pim.Router.pp_message) msgs))
    gen

let prop_differential_raw_batches =
  QCheck.Test.make
    ~name:"degenerate round_makespan = reference, raw message batches"
    ~count:100 random_messages_arbitrary (fun msgs ->
      T.round_makespan ~model:LM.degenerate mesh44 msgs
      = R.round_makespan mesh44 msgs)

(* ------------------------------------------------------------------ *)
(* Link_model generators and pure invariants                           *)
(* ------------------------------------------------------------------ *)

let model_gen ?queue_depth () =
  let open QCheck.Gen in
  int_range 1 4 >>= fun bandwidth ->
  int_range 1 4 >>= fun flit ->
  bool >>= fun wormhole ->
  (match queue_depth with
  | Some _ -> return queue_depth
  | None -> oneof [ return None; int_range 1 4 >>= fun d -> return (Some d) ])
  >>= fun queue_depth ->
  int_range 0 2 >>= fun compute_cycles ->
  return
    (LM.create ~bandwidth ~flit ~wormhole ?queue_depth ~compute_cycles ())

let model_print = Format.asprintf "%a" LM.pp
let model_arbitrary ?queue_depth () = QCheck.make ~print:model_print (model_gen ?queue_depth ())

let prop_flit_conservation =
  QCheck.Test.make ~name:"fragments: conserve volume, sized within flit"
    ~count:200
    QCheck.(pair (model_arbitrary ()) (int_bound 40))
    (fun (model, volume) ->
      let frags = LM.fragments model ~volume in
      List.fold_left ( + ) 0 frags = volume
      && List.for_all
           (fun f -> f >= 1 && f <= max model.LM.flit volume)
           frags
      && ((not model.LM.wormhole) || volume = 0
         || List.for_all (fun f -> f <= model.LM.flit) frags))

(* ------------------------------------------------------------------ *)
(* Flow-shop oracle                                                    *)
(* ------------------------------------------------------------------ *)

(* Permutation flow-shop makespan: fragments (jobs) cross [hops] links
   (machines) in FIFO order, job j holding every machine for [times_j]
   cycles: C(j,i) = max(C(j-1,i), C(j,i-1)) + times_j. Exact for any
   number of messages sharing one route with unbounded queues, because
   fragments cannot overtake. *)
let flow_shop ~hops times =
  let c = Array.make (hops + 1) 0 in
  List.iter
    (fun p ->
      for i = 1 to hops do
        c.(i) <- max c.(i) c.(i - 1) + p
      done)
    times;
  c.(hops)

let fragment_times model volume =
  List.map (LM.hop_cycles model) (LM.fragments model ~volume)

(* Single-packet serialized path: what a message would take alone. *)
let alone_cycles model mesh (m : Pim.Router.message) =
  flow_shop
    ~hops:(Pim.Mesh.distance mesh m.src m.dst)
    (fragment_times model m.volume)

let live_of msgs =
  List.filter
    (fun (m : Pim.Router.message) -> m.src <> m.dst && m.volume > 0)
    msgs

(* ------------------------------------------------------------------ *)
(* QCheck invariants over random models and traffic                    *)
(* ------------------------------------------------------------------ *)

let model_and_messages = QCheck.pair (model_arbitrary ()) random_messages_arbitrary

let prop_volume_hops_invariant =
  QCheck.Test.make
    ~name:"volume_hops = analytic cost and flits = fragment count, any model"
    ~count:100 model_and_messages (fun (model, msgs) ->
      let r = T.round_stats ~model mesh44 msgs in
      let live = live_of msgs in
      r.T.volume_hops
      = List.fold_left
          (fun acc (m : Pim.Router.message) ->
            acc + (m.volume * Pim.Mesh.distance mesh44 m.src m.dst))
          0 live
      && r.T.flits
         = List.fold_left
             (fun acc (m : Pim.Router.message) ->
               acc + List.length (LM.fragments model ~volume:m.volume))
             0 live)

let prop_cycles_lower_bounds =
  QCheck.Test.make
    ~name:
      "cycles >= ceil(link load / bw) and >= longest serialized path, any \
       model" ~count:100 model_and_messages (fun (model, msgs) ->
      let span = T.round_makespan ~model mesh44 msgs in
      let stats = Pim.Link_stats.create mesh44 in
      ignore (Pim.Router.route_all mesh44 stats msgs);
      let link_bound =
        match Pim.Link_stats.max_link stats with
        | Some (_, _, v) -> LM.hop_cycles model v
        | None -> 0
      in
      let path_bound =
        List.fold_left
          (fun acc m -> max acc (alone_cycles model mesh44 m))
          0 (live_of msgs)
      in
      span >= link_bound && span >= path_bound)

(* Shared-route batches: every message src -> dst over one route. General
   FIFO networks admit scheduling anomalies, but a shared route is a
   tandem of queues, where more bandwidth and deeper buffers can only
   help; the properties below are theorems there. *)
let shared_route_arbitrary =
  let gen =
    let open QCheck.Gen in
    int_bound 15 >>= fun src ->
    int_bound 15 >>= fun dst ->
    list_size (int_range 1 5) (int_range 1 4) >>= fun volumes ->
    return (List.map (fun volume -> msg ~src ~dst ~volume) volumes)
  in
  QCheck.make
    ~print:(fun msgs ->
      String.concat "; "
        (List.map (Format.asprintf "%a" Pim.Router.pp_message) msgs))
    gen

let prop_monotone_in_bandwidth =
  QCheck.Test.make
    ~name:"shared route: cycles non-increasing in bandwidth" ~count:100
    QCheck.(
      triple shared_route_arbitrary (int_range 1 3) (model_arbitrary ()))
    (fun (msgs, extra, model) ->
      let at bandwidth =
        T.round_makespan ~model:{ model with LM.bandwidth } mesh44 msgs
      in
      at (model.LM.bandwidth + extra) <= at model.LM.bandwidth)

let prop_monotone_in_queue_depth =
  QCheck.Test.make
    ~name:"shared route: cycles non-increasing in queue depth" ~count:100
    QCheck.(
      triple shared_route_arbitrary (int_range 1 3)
        (model_arbitrary ~queue_depth:1 ()))
    (fun (msgs, d, model) ->
      let at queue_depth =
        T.round_makespan
          ~model:{ model with LM.queue_depth }
          mesh44 msgs
      in
      let bounded_shallow = at (Some 1) in
      let bounded_deep = at (Some (1 + d)) in
      let unbounded = at None in
      bounded_deep <= bounded_shallow && unbounded <= bounded_deep)

let rounds_of_batches batches =
  List.map
    (fun batch -> { Pim.Simulator.migrations = []; references = batch })
    batches

let batches_arbitrary =
  let gen =
    let open QCheck.Gen in
    list_size (int_range 1 4)
      (list_size (int_range 1 6)
         (triple (int_bound 15) (int_bound 15) (int_range 1 4)))
    >>= fun rounds ->
    return
      (List.map
         (List.map (fun (src, dst, volume) -> msg ~src ~dst ~volume))
         rounds)
  in
  QCheck.make gen

let close a b =
  Float.abs (a -. b) <= 1e-6 *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

let prop_energy_additivity =
  QCheck.Test.make
    ~name:"energy and counters additive across rounds, any model" ~count:60
    QCheck.(pair (model_arbitrary ()) batches_arbitrary)
    (fun (model, batches) ->
      let whole = T.run ~model mesh44 (rounds_of_batches batches) in
      let parts =
        List.map
          (fun b -> T.run ~model mesh44 (rounds_of_batches [ b ]))
          batches
      in
      let sum f = List.fold_left (fun acc p -> acc + f p) 0 parts in
      let sumf f = List.fold_left (fun acc p -> acc +. f p) 0. parts in
      whole.T.total_cycles = sum (fun p -> p.T.total_cycles)
      && whole.T.total_volume_hops = sum (fun p -> p.T.total_volume_hops)
      && whole.T.queue_stall_cycles = sum (fun p -> p.T.queue_stall_cycles)
      && whole.T.bandwidth_idle = sum (fun p -> p.T.bandwidth_idle)
      && whole.T.compute_idle = sum (fun p -> p.T.compute_idle)
      && close whole.T.energy (sumf (fun p -> p.T.energy))
      && close whole.T.energy_transport
           (sumf (fun p -> p.T.energy_transport))
      && close whole.T.energy_leakage (sumf (fun p -> p.T.energy_leakage)))

(* The report's own energy fields must agree with the Energy module
   (same expressions, default parameters). *)
let test_energy_matches_energy_module () =
  let trace = fixed_trace mesh44 in
  let problem = Sched.Problem.create mesh44 trace in
  let schedule = Sched.Scheduler.solve problem Sched.Scheduler.Gomcds in
  let rounds = Sched.Schedule.to_rounds schedule trace in
  let report = T.run mesh44 rounds in
  check_float "energy = Energy.of_report" (Pim.Energy.of_report mesh44 report)
    report.T.energy;
  let transport, leakage = Pim.Energy.breakdown mesh44 report in
  check_float "transport term" transport report.T.energy_transport;
  check_float "leakage term" leakage report.T.energy_leakage

(* ------------------------------------------------------------------ *)
(* Closed-form oracles                                                 *)
(* ------------------------------------------------------------------ *)

let prop_lone_message_exact =
  QCheck.Test.make
    ~name:"lone message = flow-shop over its fragments (exact)" ~count:200
    QCheck.(
      quad (int_bound 15) (int_bound 15) (int_range 1 12) (model_arbitrary ()))
    (fun (src, dst, volume, model) ->
      (* bounded queues make a lone message's own fragments block each
         other (a blocking flow shop); the closed form is the unbounded
         recurrence. round_stats charges the destination compute_cycles
         per unit, and the source injects freely, so the compute axis
         only adds a max against the destination's execution time. *)
      let model = { model with LM.queue_depth = None } in
      let work = model.LM.compute_cycles * volume in
      T.round_makespan ~model mesh44 [ msg ~src ~dst ~volume ]
      = if src = dst then work
        else
          max work
            (flow_shop
               ~hops:(Pim.Mesh.distance mesh44 src dst)
               (fragment_times model volume)))

let prop_shared_route_exact =
  QCheck.Test.make
    ~name:"1-3 contending messages on one route = flow-shop (exact)"
    ~count:200
    QCheck.(
      quad (int_bound 15) (int_bound 15)
        (list_of_size (Gen.int_range 1 3) (int_range 1 5))
        (model_arbitrary ()))
    (fun (src, dst, volumes, model) ->
      let model = { model with LM.queue_depth = None } in
      let msgs = List.map (fun volume -> msg ~src ~dst ~volume) volumes in
      let times =
        List.concat_map (fun v -> fragment_times model v) volumes
      in
      let work =
        model.LM.compute_cycles * List.fold_left ( + ) 0 volumes
      in
      T.round_makespan ~model mesh44 msgs
      = if src = dst then work
        else
          max work (flow_shop ~hops:(Pim.Mesh.distance mesh44 src dst) times))

let test_crossing_traffic_pins () =
  (* two volume-2 messages sharing middle link (1,2) of the top row:
     0->2 rides 0,1,2 and 1->3 rides 1,2,3; the second's only conflict
     resolves by FIFO order: both deliver by cycle 4 *)
  check_int "crossing, shared middle link" 4
    (T.round_makespan mesh44
       [ msg ~src:0 ~dst:2 ~volume:2; msg ~src:1 ~dst:3 ~volume:2 ]);
  (* staggered: 0->3 behind 1->3 never waits, pure pipeline *)
  check_int "staggered, no wait" 3
    (T.round_makespan mesh44
       [ msg ~src:0 ~dst:3 ~volume:1; msg ~src:1 ~dst:3 ~volume:1 ]);
  (* bandwidth 2 halves (ceil) each hop: 2 + 1 + 1 on one link *)
  check_int "bandwidth-2 serialization" 4
    (T.round_makespan
       ~model:(LM.create ~bandwidth:2 ())
       mesh44
       [
         msg ~src:0 ~dst:1 ~volume:3;
         msg ~src:0 ~dst:1 ~volume:2;
         msg ~src:0 ~dst:1 ~volume:1;
       ]);
  (* wormhole pipelines the 6-hop volume-3 message the store-and-forward
     model ships in 18 cycles: three unit flits take hops + flits - 1 *)
  check_int "wormhole pipelining" 8
    (T.round_makespan
       ~model:(LM.create ~wormhole:true ~flit:1 ())
       mesh44
       [ msg ~src:0 ~dst:15 ~volume:3 ]);
  check_int "store-and-forward reference" 18
    (T.round_makespan mesh44 [ msg ~src:0 ~dst:15 ~volume:3 ])

let test_queue_depth_backpressure_pin () =
  (* one slow packet on the second link, two fast ones behind it: with a
     depth-1 queue the third finishes its first hop into a full queue and
     must block in place, holding link (0,1) *)
  let msgs =
    [
      msg ~src:0 ~dst:3 ~volume:4;
      msg ~src:0 ~dst:3 ~volume:1;
      msg ~src:0 ~dst:3 ~volume:1;
    ]
  in
  let unbounded = T.round_stats mesh44 msgs in
  let bounded =
    T.round_stats ~model:(LM.create ~queue_depth:1 ()) mesh44 msgs
  in
  check_int "unbounded = flow shop" (flow_shop ~hops:3 [ 4; 1; 1 ])
    unbounded.T.cycles;
  check_int "unbounded never stalls" 0 unbounded.T.queue_stall_cycles;
  check_bool "depth-1 stalls" true (bounded.T.queue_stall_cycles > 0);
  check_bool "backpressure never speeds up" true
    (bounded.T.cycles >= unbounded.T.cycles)

(* ------------------------------------------------------------------ *)
(* Compute occupancy                                                   *)
(* ------------------------------------------------------------------ *)

let test_compute_occupancy_delays_injection () =
  (* rank 0 sinks 3 reference units: at 2 cycles per unit it is busy
     until cycle 6, so its own migration cannot start before then *)
  let rounds =
    [
      {
        Pim.Simulator.migrations = [ msg ~src:0 ~dst:1 ~volume:1 ];
        references = [ msg ~src:4 ~dst:0 ~volume:3 ];
      };
    ]
  in
  let free = T.run mesh44 rounds in
  let busy =
    T.run ~model:(LM.create ~compute_cycles:2 ()) mesh44 rounds
  in
  check_int "free compute: both packets overlap" 3 free.T.total_cycles;
  (* reference 4->0 lands in 3 cycles; migration waits out rank 0's six
     busy cycles and ships on cycle 7 *)
  check_int "occupied source injects late" 7 busy.T.total_cycles;
  check_bool "waiting ranks accounted" true (busy.T.compute_idle > 0);
  (* an all-local round still pays the execution time *)
  let local =
    [
      {
        Pim.Simulator.migrations = [];
        references = [ msg ~src:5 ~dst:5 ~volume:4 ];
      };
    ]
  in
  check_int "local round, free compute" 0 (T.run mesh44 local).T.total_cycles;
  check_int "local round, occupied" 8
    (T.run ~model:(LM.create ~compute_cycles:2 ()) mesh44 local).T.total_cycles

(* ------------------------------------------------------------------ *)
(* Faults × queue depth: stall, never deadlock                         *)
(* ------------------------------------------------------------------ *)

(* Dead links (1,2), (5,6), (9,10) leave row 3 as the only crossing from
   the west columns to the east: three row messages all detour through
   the (13,14) bottleneck. *)
let bottleneck_fault =
  Pim.Fault.create ~dead_links:[ (1, 2); (5, 6); (9, 10) ] ()

let test_fault_detour_stalls_no_deadlock () =
  (* a slow packet occupies the bottleneck link (13,14) from cycle 0
     while two fast detoured packets converge on it; with depth-1 queues
     the second one in line finishes hop (9,13) into a full queue and
     must block in place *)
  let msgs =
    [
      msg ~src:13 ~dst:15 ~volume:4;
      msg ~src:8 ~dst:11 ~volume:1;
      msg ~src:4 ~dst:7 ~volume:1;
    ]
  in
  let free = T.round_stats ~fault:bottleneck_fault mesh44 msgs in
  let squeezed =
    T.round_stats ~fault:bottleneck_fault
      ~model:(LM.create ~queue_depth:1 ())
      mesh44 msgs
  in
  check_int "detours pay the long way round" free.T.volume_hops
    squeezed.T.volume_hops;
  check_bool "depth-1 through the bottleneck stalls" true
    (squeezed.T.queue_stall_cycles > 0);
  check_bool "backpressure never speeds up" true
    (squeezed.T.cycles >= free.T.cycles)

(* Bounded queues can finish a round {e sooner}: off a shared route,
   blocking a packet upstream reorders the arrivals at a later link, and
   a FIFO network then admits a Graham-style timing anomaly. Healthy 4x4
   mesh, 15->0 v1 (P0, six hops), 14->4 v2 (P1) and 11->4 v2 (P2), all
   three meeting on link 8->4:
   - unbounded: P1 and P2 finish their hops into 8->4 at cycle 5 and
     queue there in id order; P0 arrives at cycle 6, behind both, and
     leaves 8->4 at cycle 10 — 12 cycles;
   - depth 1: at cycle 5 P1 takes the only slot of 8->4's queue and P2
     blocks on 9->8. At cycle 6 P1 owns 8->4 and its queue is empty
     again; blocked P2 and freshly finished P0 advance in id order, so
     P0 takes the slot and P2 blocks again (three stall cycles in all).
     The long-path P0 now crosses 8->4 before P2 and the round ends at
     cycle 11.
   Every step follows the engine's rules (FIFO links, id-order advance,
   backpressure), so this is the model, not a bug. Depths 2-4 give 12
   cycles, and volume·hops is 22 throughout. The pin below keeps the
   case; the property states what does hold. *)
let test_bounded_queue_anomaly_pin () =
  let at ?fault ?queue_depth mesh msgs =
    T.round_stats ?fault ~model:(LM.create ?queue_depth ()) mesh msgs
  in
  let healthy =
    [
      msg ~src:15 ~dst:0 ~volume:1;
      msg ~src:14 ~dst:4 ~volume:2;
      msg ~src:11 ~dst:4 ~volume:2;
    ]
  in
  let free = at mesh44 healthy in
  let squeezed = at ~queue_depth:1 mesh44 healthy in
  check_int "unbounded queues" 12 free.T.cycles;
  check_int "depth-1 queues" 11 squeezed.T.cycles;
  check_bool "depth 1 finishes sooner" true (squeezed.T.cycles < free.T.cycles);
  check_int "depth-1 stalls" 3 squeezed.T.queue_stall_cycles;
  List.iter
    (fun d ->
      check_int
        (Printf.sprintf "depth-%d queues" d)
        12
        (at ~queue_depth:d mesh44 healthy).T.cycles)
    [ 2; 3; 4 ];
  check_int "volume-hops, unbounded" 22 free.T.volume_hops;
  check_int "volume-hops, depth 1" 22 squeezed.T.volume_hops;
  (* the same anomaly on the property's faulty mesh *)
  let faulty =
    [
      msg ~src:8 ~dst:5 ~volume:1;
      msg ~src:8 ~dst:3 ~volume:1;
      msg ~src:0 ~dst:13 ~volume:1;
    ]
  in
  check_int "faulty mesh, unbounded" 7
    (at ~fault:fault_mesh mesh44 faulty).T.cycles;
  check_int "faulty mesh, depth 1" 6
    (at ~fault:fault_mesh ~queue_depth:1 mesh44 faulty).T.cycles

(* A round's makespan lower bounds under [fault]: the most loaded link's
   volume over the fault-aware routes, and the longest single-packet
   serialized path along its detour. *)
let fault_aware_bound ~fault model mesh msgs =
  let oracle = Pim.Fault.Oracle.create mesh fault in
  let stats = Pim.Link_stats.create ~fault mesh in
  ignore (Pim.Router.route_all ~oracle mesh stats msgs);
  let link_bound =
    match Pim.Link_stats.max_link stats with
    | Some (_, _, v) -> LM.hop_cycles model v
    | None -> 0
  in
  List.fold_left
    (fun acc (m : Pim.Router.message) ->
      max acc
        (flow_shop
           ~hops:(Pim.Fault.Oracle.distance_exn oracle ~src:m.src ~dst:m.dst)
           (fragment_times model m.volume)))
    link_bound (live_of msgs)

let prop_faulty_bounded_queues_terminate (label, mesh, fault) =
  let arb =
    Gen.trace_arbitrary ~mesh ~max_data:5 ~max_windows:3 ~max_count:3 ()
  in
  QCheck.Test.make
    ~name:("bounded queues on faulty " ^ label ^ ": stall, never deadlock")
    ~count:20 arb
    (fun trace ->
      let problem = Sched.Problem.create ~fault mesh trace in
      let schedule = Sched.Scheduler.solve problem Sched.Scheduler.Gomcds in
      let rounds = Sched.Schedule.to_rounds schedule trace in
      let model = LM.create ~queue_depth:1 () in
      let free = T.run ~fault mesh rounds in
      (* raises Deadlock (failing the test) if backpressure ever wedges *)
      let squeezed = T.run ~fault ~model mesh rounds in
      squeezed.T.total_volume_hops = free.T.total_volume_hops
      && List.for_all2
           (fun (r : T.round_report) { Pim.Simulator.migrations; references } ->
             r.T.cycles
             >= fault_aware_bound ~fault model mesh (migrations @ references))
           squeezed.T.rounds rounds)

let faulty_bounded_cases =
  [ ("mesh", mesh44, fault_mesh); ("torus", torus35, fault_torus) ]

(* ------------------------------------------------------------------ *)
(* Honest stats sanity                                                 *)
(* ------------------------------------------------------------------ *)

let prop_honest_stats_sane =
  QCheck.Test.make
    ~name:"link_utilization in [0,1], bandwidth_idle >= 0, any model"
    ~count:100 model_and_messages (fun (model, msgs) ->
      let r = T.round_stats ~model mesh44 msgs in
      r.T.link_utilization >= 0.
      && r.T.link_utilization <= 1.
      && r.T.bandwidth_idle >= 0
      && r.T.queue_stall_cycles >= 0
      && r.T.compute_idle >= 0)

let suite =
  [
    Gen.case "differential: every scheduler, every topo x fault"
      test_differential_every_scheduler;
    Gen.to_alcotest (prop_differential_random_traces (List.nth topo_cases 0));
    Gen.to_alcotest (prop_differential_random_traces (List.nth topo_cases 1));
    Gen.to_alcotest (prop_differential_random_traces (List.nth topo_cases 2));
    Gen.to_alcotest (prop_differential_random_traces (List.nth topo_cases 3));
    Gen.to_alcotest prop_differential_raw_batches;
    Gen.to_alcotest prop_flit_conservation;
    Gen.to_alcotest prop_volume_hops_invariant;
    Gen.to_alcotest prop_cycles_lower_bounds;
    Gen.to_alcotest prop_monotone_in_bandwidth;
    Gen.to_alcotest prop_monotone_in_queue_depth;
    Gen.to_alcotest prop_energy_additivity;
    Gen.case "energy fields match Energy module"
      test_energy_matches_energy_module;
    Gen.to_alcotest prop_lone_message_exact;
    Gen.to_alcotest prop_shared_route_exact;
    Gen.case "crossing-traffic pins" test_crossing_traffic_pins;
    Gen.case "queue-depth backpressure pin" test_queue_depth_backpressure_pin;
    Gen.case "compute occupancy delays injection"
      test_compute_occupancy_delays_injection;
    Gen.case "fault detour through bottleneck stalls, no deadlock"
      test_fault_detour_stalls_no_deadlock;
    Gen.case "bounded-queue timing anomaly pin" test_bounded_queue_anomaly_pin;
    Gen.to_alcotest
      (prop_faulty_bounded_queues_terminate (List.nth faulty_bounded_cases 0));
    Gen.to_alcotest
      (prop_faulty_bounded_queues_terminate (List.nth faulty_bounded_cases 1));
    Gen.to_alcotest prop_honest_stats_sane;
  ]
