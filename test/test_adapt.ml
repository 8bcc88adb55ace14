let mesh = Gen.mesh44
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let adaptive_total ~initial trace schedule =
  (* include the charged entry migration like Adapt.recovery does *)
  let base = Sched.Schedule.total_cost schedule trace in
  let entry = ref 0 in
  for data = 0 to Sched.Schedule.n_data schedule - 1 do
    entry :=
      !entry
      + Pim.Mesh.distance mesh initial.(data)
          (Sched.Schedule.center schedule ~window:0 ~data)
  done;
  base + !entry

let test_stays_when_already_optimal () =
  (* datum referenced only at its imposed home: no movement at all *)
  let t = Gen.trace mesh ~n_data:1 [ [ (0, 7, 3) ]; [ (0, 7, 2) ] ] in
  let s = Sched.Adapt.run ~initial:[| 7 |] mesh t in
  Alcotest.(check (list int))
    "parked" [ 7; 7 ]
    (Array.to_list (Sched.Schedule.centers_of_data s ~data:0))

let test_entry_migration_weighed () =
  (* one weak reference far from home: cheaper to serve remotely than to
     migrate; strong pull: migrate immediately *)
  let weak = Gen.trace mesh ~n_data:1 [ [ (0, 15, 1) ] ] in
  let s = Sched.Adapt.run ~initial:[| 0 |] mesh weak in
  check_int "serves remotely" 0 (Sched.Schedule.center s ~window:0 ~data:0);
  let strong = Gen.trace mesh ~n_data:1 [ [ (0, 15, 9) ] ] in
  let s = Sched.Adapt.run ~initial:[| 0 |] mesh strong in
  check_int "migrates" 15 (Sched.Schedule.center s ~window:0 ~data:0)

let test_validates_initial () =
  let t = Gen.trace mesh ~n_data:2 [ [ (0, 0, 1) ] ] in
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Adapt: initial placement has 1 entries for 2 data")
    (fun () -> ignore (Sched.Adapt.run ~initial:[| 0 |] mesh t));
  Alcotest.check_raises "bad rank"
    (Invalid_argument "Adapt: datum 1 starts at invalid rank 99") (fun () ->
      ignore (Sched.Adapt.run ~initial:[| 0; 99 |] mesh t))

let test_recovery_fields_consistent () =
  let t = Workloads.Lu.trace ~n:8 mesh in
  let initial = Sched.Baseline.row_wise mesh (Reftrace.Trace.space t) in
  let r = Sched.Adapt.recovery ~initial mesh t in
  check_bool "adaptive <= static" true (r.Sched.Adapt.adaptive <= r.Sched.Adapt.imposed_static);
  check_bool "optimal <= adaptive" true (r.Sched.Adapt.free_optimal <= r.Sched.Adapt.adaptive);
  check_bool "recovered in [0,1]" true
    (r.Sched.Adapt.recovered >= 0. && r.Sched.Adapt.recovered <= 1.);
  (* LU's drifting pivots leave real headroom and adaptation recovers most *)
  check_bool "meaningful recovery" true (r.Sched.Adapt.recovered > 0.5)

let test_no_headroom_counts_as_full_recovery () =
  (* imposed placement already optimal: headroom 0 -> recovered = 1 *)
  let t = Gen.trace mesh ~n_data:1 [ [ (0, 4, 2) ] ] in
  let r = Sched.Adapt.recovery ~initial:[| 4 |] mesh t in
  check_int "no gap" r.Sched.Adapt.imposed_static r.Sched.Adapt.free_optimal;
  Alcotest.(check (float 1e-9)) "full" 1. r.Sched.Adapt.recovered

let prop_sandwiched_between_static_and_optimal =
  let arb = Gen.trace_arbitrary ~max_data:6 ~max_windows:5 ~max_count:4 () in
  QCheck.Test.make
    ~name:"adaptive cost between free optimum and imposed static" ~count:100
    arb (fun t ->
      let space = Reftrace.Trace.space t in
      let initial = Sched.Baseline.row_wise mesh space in
      let s = Sched.Adapt.run ~initial mesh t in
      let adaptive = adaptive_total ~initial t s in
      let static =
        Sched.Schedule.total_cost
          (Sched.Baseline.schedule initial mesh t)
          t
      in
      let optimal = Sched.Bounds.lower_bound_in (Sched.Problem.create mesh t) in
      optimal <= adaptive && adaptive <= static)

let prop_capacity_respected =
  let arb = Gen.trace_arbitrary ~max_data:16 ~max_windows:4 ~max_count:3 () in
  QCheck.Test.make ~name:"adaptive schedules respect capacity" ~count:60 arb
    (fun t ->
      let n = Reftrace.Data_space.size (Reftrace.Trace.space t) in
      let capacity = Pim.Memory.capacity_for ~data_count:n ~mesh ~headroom:2 in
      let s = Sched.Adapt.from_row_wise ~capacity mesh t in
      Option.is_none (Sched.Schedule.check_capacity s ~capacity))

let prop_free_gomcds_never_worse =
  let arb = Gen.trace_arbitrary ~max_data:5 ~max_windows:4 ~max_count:4 () in
  QCheck.Test.make
    ~name:"free-choice GOMCDS <= adaptive (entry migration charged)"
    ~count:100 arb (fun t ->
      let initial = Sched.Baseline.row_wise mesh (Reftrace.Trace.space t) in
      let adaptive =
        adaptive_total ~initial t (Sched.Adapt.run ~initial mesh t)
      in
      Sched.Schedule.total_cost (Sched.Gomcds.schedule (Sched.Problem.create mesh t)) t <= adaptive)

(* The pre-port adaptation DP, kept as the oracle [Adapt.run] is pinned
   to: the callback GOMCDS problem with its entry cost raised by the
   migration out of the imposed location, solved datum by datum
   (heaviest first) through [Pim_oracle.Callback_dp], with the same
   memory mask under a capacity. *)
let oracle_adapt ?capacity ~initial mesh trace =
  let module C = Pim_oracle.Callback_dp in
  let n_data = Reftrace.Data_space.size (Reftrace.Trace.space trace) in
  let n_windows = Reftrace.Trace.n_windows trace in
  let schedule = Sched.Schedule.create mesh ~n_windows ~n_data in
  let mems =
    Option.map
      (fun c ->
        Array.init n_windows (fun _ -> Pim.Memory.create mesh ~capacity:c))
      capacity
  in
  List.iter
    (fun data ->
      let p = C.gomcds_problem mesh trace ~data in
      let p =
        {
          p with
          C.enter_cost =
            (fun j ->
              Pim.Mesh.distance mesh initial.(data) j + p.C.enter_cost j);
        }
      in
      let centers =
        match mems with
        | None -> snd (C.solve p)
        | Some mems ->
            let allowed ~layer j = not (Pim.Memory.is_full mems.(layer) j) in
            let _, centers = Option.get (C.solve_filtered p ~allowed) in
            Array.iteri
              (fun layer rank -> assert (Pim.Memory.allocate mems.(layer) rank))
              centers;
            centers
      in
      Array.iteri
        (fun w rank -> Sched.Schedule.set_center schedule ~window:w ~data rank)
        centers)
    (Sched.Ordering.by_total_references trace);
  schedule

let prop_matches_callback_oracle (mesh, label) =
  let arb =
    QCheck.triple
      (Gen.trace_arbitrary ~mesh ~max_data:12 ~max_windows:4 ~max_count:3 ())
      QCheck.small_nat QCheck.bool
  in
  QCheck.Test.make
    ~name:("Adapt.run = callback-DP oracle, bounded and unbounded, " ^ label)
    ~count:60 arb (fun (t, seed, bounded) ->
      let n = Reftrace.Data_space.size (Reftrace.Trace.space t) in
      let size = Pim.Mesh.size mesh in
      let initial =
        Array.init n (fun d -> (seed + 1) * ((7 * d) + 3) mod size)
      in
      (* headroom 1: the tightest feasible capacity, so the mask bites *)
      let capacity =
        if bounded then
          Some (Pim.Memory.capacity_for ~data_count:n ~mesh ~headroom:1)
        else None
      in
      Sched.Schedule.equal
        (Sched.Adapt.run ?capacity ~initial mesh t)
        (oracle_adapt ?capacity ~initial mesh t))

let suite =
  [
    Gen.case "stays when already optimal" test_stays_when_already_optimal;
    Gen.case "entry migration weighed" test_entry_migration_weighed;
    Gen.case "validates initial" test_validates_initial;
    Gen.case "recovery fields consistent" test_recovery_fields_consistent;
    Gen.case "no headroom = full recovery" test_no_headroom_counts_as_full_recovery;
    Gen.to_alcotest prop_sandwiched_between_static_and_optimal;
    Gen.to_alcotest prop_capacity_respected;
    Gen.to_alcotest prop_free_gomcds_never_worse;
    Gen.to_alcotest (prop_matches_callback_oracle (mesh, "mesh"));
    Gen.to_alcotest
      (prop_matches_callback_oracle (Pim.Mesh.torus ~rows:3 ~cols:5, "torus"));
  ]
