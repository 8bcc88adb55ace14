(* Cross-checks of the separable cost model against the naive oracle
   ([Pim_oracle.Naive_cost]): byte-identical cost vectors, local optima
   (including tie order) and path costs on random meshes and tori, every
   value a scheduler reads off a [Problem] session, plus the
   cache-sharing and build-counter contracts. *)

module Naive = Pim_oracle.Naive_cost

let check_int = Alcotest.(check int)

(* Random instance: a mesh or torus of arbitrary small shape plus a trace
   over it. Non-square shapes matter (they catch x/y transpositions);
   extent 1 and 2 exercise the circular prefix sums' edge cases. *)
let instance_gen =
  let open QCheck.Gen in
  int_range 1 4 >>= fun rows ->
  int_range 1 4 >>= fun cols ->
  bool >>= fun wrap ->
  let mesh =
    if wrap then Pim.Mesh.torus ~rows ~cols
    else Pim.Mesh.create ~rows ~cols
  in
  Gen.trace_gen ~mesh ~max_data:4 ~max_windows:4 ~max_count:3 ()
  >>= fun trace -> return (mesh, trace)

let instance_print (mesh, trace) =
  Format.asprintf "%a / %a" Pim.Mesh.pp mesh Reftrace.Trace.pp trace

let instance_arbitrary = QCheck.make ~print:instance_print instance_gen

let for_all_pairs (mesh, trace) f =
  let n = Reftrace.Data_space.size (Reftrace.Trace.space trace) in
  let ok = ref true in
  List.iter
    (fun w ->
      for data = 0 to n - 1 do
        if not (f mesh w ~data) then ok := false
      done)
    (Reftrace.Trace.windows trace);
  !ok

let prop_cost_vectors_equal =
  QCheck.Test.make ~name:"separable cost_vector = Naive cost_vector"
    ~count:200 instance_arbitrary (fun inst ->
      for_all_pairs inst (fun mesh w ~data ->
          Sched.Cost.cost_vector mesh w ~data
          = Naive.cost_vector mesh w ~data))

let prop_reference_cost_equals_vector_entry =
  QCheck.Test.make
    ~name:"separable reference_cost = its cost_vector entry, every center"
    ~count:100 instance_arbitrary (fun inst ->
      for_all_pairs inst (fun mesh w ~data ->
          let v = Naive.cost_vector mesh w ~data in
          let ok = ref true in
          for center = 0 to Array.length v - 1 do
            if Sched.Cost.reference_cost mesh w ~data ~center <> v.(center)
            then ok := false
          done;
          !ok))

let prop_local_optima_equal =
  QCheck.Test.make
    ~name:"separable local_optimal_center = Naive (same tie order)"
    ~count:200 instance_arbitrary (fun inst ->
      for_all_pairs inst (fun mesh w ~data ->
          Sched.Cost.local_optimal_center mesh w ~data
          = Naive.local_optimal_center mesh w ~data))

let prop_path_costs_equal =
  QCheck.Test.make ~name:"separable path_cost = Naive path_cost" ~count:100
    instance_arbitrary (fun (mesh, trace) ->
      let n = Reftrace.Data_space.size (Reftrace.Trace.space trace) in
      let windows = Reftrace.Trace.windows trace in
      let ok = ref true in
      for data = 0 to n - 1 do
        (* two trajectories: the per-window local optima, and all-zero *)
        let optima =
          List.map
            (fun w -> (w, Naive.local_optimal_center mesh w ~data))
            windows
        in
        let home = List.map (fun w -> (w, 0)) windows in
        List.iter
          (fun pairs ->
            if
              Sched.Cost.path_cost mesh pairs ~data
              <> Naive.path_cost mesh pairs ~data
            then ok := false)
          [ optima; home ]
      done;
      !ok)

let prop_marginals_conserve_mass =
  QCheck.Test.make ~name:"Window.marginals sum to the reference total"
    ~count:100 instance_arbitrary (fun inst ->
      for_all_pairs inst (fun mesh w ~data ->
          let mx, my =
            Reftrace.Window.marginals w ~data ~cols:(Pim.Mesh.cols mesh)
              ~rows:(Pim.Mesh.rows mesh)
          in
          let sum = Array.fold_left ( + ) 0 in
          sum mx = Reftrace.Window.references w data && sum mx = sum my))

(* Every value a scheduler reads from a session's cost model, pinned to
   the naive oracle for every (window, datum): the arena row, the merged
   vector, both optimal centers (lowest rank on ties) and the bounded
   placement (the first free rank of the oracle's processor list). Session
   [a] asks for centers and placements first, so they come off the
   vector-free paths (marginal argmin, placement axes) before
   [cost_vector] fills rows one at a time; session [b] fills every row
   through the window-batched [prefetch_all] first. The capacity policy
   must not move any value. *)
let prop_problem_matches_oracle =
  QCheck.Test.make
    ~name:"Problem cost model = naive oracle, every (window, datum)"
    ~count:100
    (QCheck.pair instance_arbitrary QCheck.bool)
    (fun ((mesh, trace), bounded) ->
      let n = Reftrace.Data_space.size (Reftrace.Trace.space trace) in
      let policy =
        if bounded then
          Sched.Problem.Bounded
            (Pim.Memory.capacity_for ~data_count:n ~mesh ~headroom:2)
        else Sched.Problem.Unbounded
      in
      let a = Sched.Problem.create ~policy mesh trace in
      let b = Sched.Problem.create ~policy mesh trace in
      Sched.Problem.prefetch_all b;
      let merged = Reftrace.Trace.merged trace in
      let ok = ref true in
      let expect cond = if not cond then ok := false in
      for data = 0 to n - 1 do
        List.iteri
          (fun window w ->
            let v = Naive.cost_vector mesh w ~data in
            let cands =
              Pim_oracle.Processor_list.of_costs ~n:(Array.length v) (Array.get v)
            in
            expect (Gen.search_agrees a (`Window (window, data)) cands);
            expect
              (Sched.Problem.optimal_center a ~window ~data
              = Naive.local_optimal_center mesh w ~data);
            expect (Sched.Problem.cost_vector a ~window ~data = v);
            expect (Gen.search_agrees b (`Window (window, data)) cands);
            expect (Sched.Problem.cost_vector b ~window ~data = v))
          (Reftrace.Trace.windows trace);
        let c = Naive.local_optimal_center mesh merged ~data in
        expect (Sched.Problem.merged_optimal_center a ~data = c);
        expect
          (Sched.Problem.merged_vector a ~data
          = Naive.cost_vector mesh merged ~data)
      done;
      !ok)

let prop_problem_path_cost_matches_cost =
  QCheck.Test.make
    ~name:"Problem.path_cost / trajectory_cost = Cost.path_cost" ~count:100
    instance_arbitrary (fun (mesh, trace) ->
      let problem = Sched.Problem.create mesh trace in
      let n = Sched.Problem.n_data problem in
      let windows = Reftrace.Trace.windows trace in
      let ok = ref true in
      for data = 0 to n - 1 do
        let centers =
          List.mapi
            (fun w window ->
              (w, window, Sched.Cost.local_optimal_center mesh window ~data))
            windows
        in
        let by_index = List.map (fun (w, _, c) -> (w, c)) centers in
        let by_window = List.map (fun (_, win, c) -> (win, c)) centers in
        if
          Sched.Problem.path_cost problem ~data by_index
          <> Sched.Cost.path_cost mesh by_window ~data
        then ok := false;
        let traj =
          Array.of_list (List.map (fun (_, _, c) -> c) centers)
        in
        if
          Sched.Problem.trajectory_cost problem ~data traj
          <> Sched.Cost.path_cost mesh by_window ~data
        then ok := false
      done;
      !ok)

(* -------------------------------------------------------------- *)
(* Axis-cost unit cases (hand-checked)                             *)
(* -------------------------------------------------------------- *)

let test_axis_cost_line () =
  Alcotest.(check (array int))
    "E=2" [| 3; 2 |]
    (Sched.Cost.axis_cost ~wrap:false [| 2; 3 |]);
  Alcotest.(check (array int))
    "E=4" [| 11; 7; 7; 7 |]
    (* m = [1;2;0;3]: cost(c) = Σ m(j)·|c-j| *)
    (Sched.Cost.axis_cost ~wrap:false [| 1; 2; 0; 3 |])

let test_axis_cost_circle () =
  Alcotest.(check (array int))
    "E=2 ring" [| 3; 2 |]
    (Sched.Cost.axis_cost ~wrap:true [| 2; 3 |]);
  Alcotest.(check (array int))
    "E=4 ring" [| 1; 3; 3; 1 |]
    (Sched.Cost.axis_cost ~wrap:true [| 1; 0; 0; 1 |]);
  Alcotest.(check (array int))
    "E=3 ring" [| 2; 2; 2 |]
    (* m = [1;1;1]: every center sees the other two points at distance 1 *)
    (Sched.Cost.axis_cost ~wrap:true [| 1; 1; 1 |])

(* [axis_order] against a comparison sort on (cost, position), with
   costs squashed to a few values so ties dominate. *)
let prop_axis_order_sorted =
  QCheck.Test.make ~name:"axis_order = sort by (cost, position)" ~count:300
    QCheck.(pair (int_range 1 5) (list_of_size (Gen.int_range 1 80) small_nat))
    (fun (spread, vals) ->
      let c = Array.of_list (List.map (fun v -> v mod spread) vals) in
      let expect =
        List.sort
          (fun a b -> compare (c.(a), a) (c.(b), b))
          (List.init (Array.length c) Fun.id)
      in
      Array.to_list (Sched.Cost.axis_order c) = expect)

let test_vector_of_marginals_layout () =
  (* 2x3 mesh (rows=2, cols=3), weight at (x=2, y=1) = rank 5 *)
  let v =
    Sched.Cost.vector_of_marginals ~wrap:false ~cols:3 ~rows:2
      ([| 0; 0; 1 |], [| 0; 1 |])
  in
  Alcotest.(check (array int)) "row-major assembly" [| 3; 2; 1; 2; 1; 0 |] v

(* -------------------------------------------------------------- *)
(* Cache-sharing and counter regressions                           *)
(* -------------------------------------------------------------- *)

let shared_trace () =
  Gen.trace Gen.mesh44 ~n_data:2
    [ [ (0, 3, 2); (1, 7, 1) ]; [ (0, 12, 4) ]; [ (1, 0, 1) ] ]

let test_with_policy_and_jobs_share_caches () =
  let problem = Sched.Problem.create Gen.mesh44 (shared_trace ()) in
  (* cost_vector copies out of the shared arena, so physical sharing is
     observed through the marginal cache and the slab itself *)
  let l = Sched.Problem.marginals problem ~window:0 ~data:0 in
  let slab = fst (Sched.Problem.layer_slab problem ~data:0) in
  let bounded =
    Sched.Problem.with_policy problem (Sched.Problem.Bounded 2)
  in
  let jobs2 = Sched.Problem.with_jobs problem 2 in
  Alcotest.(check bool)
    "with_policy serves the same cached marginals" true
    (l == Sched.Problem.marginals bounded ~window:0 ~data:0);
  Alcotest.(check bool)
    "with_policy serves the same arena slab" true
    (slab == fst (Sched.Problem.layer_slab bounded ~data:0));
  Alcotest.(check bool)
    "with_jobs serves the same cached marginals" true
    (l == Sched.Problem.marginals jobs2 ~window:0 ~data:0);
  Alcotest.(check bool)
    "with_jobs serves the same arena slab" true
    (slab == fst (Sched.Problem.layer_slab jobs2 ~data:0))

let metric name snapshot = Obs.Metrics.counter snapshot name

let test_build_counters () =
  Obs.enabled := true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () -> Obs.enabled := false)
    (fun () ->
      let trace = shared_trace () in
      let sep = Sched.Problem.create Gen.mesh44 trace in
      Sched.Problem.prefetch_all sep;
      Sched.Problem.prefetch_all sep;
      let snap = Obs.Metrics.snapshot () in
      (* 4 of the 2 data x 3 window pairs carry references; the other two
         keep the arena's zero fill and charge no build. Each is built
         exactly once despite the second prefetch. *)
      check_int "separable builds" 4 (metric "cost.separable_builds" snap);
      check_int "marginal misses" 4 (metric "problem.marginals_miss" snap);
      check_int "arena bytes"
        (8 * 2 * 3 * 16)
        (metric "problem.arena_bytes" snap))

let suite =
  [
    Gen.case "axis cost, line" test_axis_cost_line;
    Gen.case "axis cost, ring" test_axis_cost_circle;
    Gen.case "vector assembly layout" test_vector_of_marginals_layout;
    Gen.to_alcotest prop_axis_order_sorted;
    Gen.case "with_policy/with_jobs share caches"
      test_with_policy_and_jobs_share_caches;
    Gen.case "kernel build counters" test_build_counters;
    Gen.to_alcotest prop_cost_vectors_equal;
    Gen.to_alcotest prop_reference_cost_equals_vector_entry;
    Gen.to_alcotest prop_local_optima_equal;
    Gen.to_alcotest prop_path_costs_equal;
    Gen.to_alcotest prop_marginals_conserve_mass;
    Gen.to_alcotest prop_problem_matches_oracle;
    Gen.to_alcotest prop_problem_path_cost_matches_cost;
  ]
