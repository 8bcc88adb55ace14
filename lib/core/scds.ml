let placement problem =
  Problem.check_feasible problem ~who:"Scds.schedule";
  match Problem.policy problem with
  | Problem.Unbounded ->
      (* Vector-free fast path: with unbounded memories [assign] always
         takes the lowest-rank cost argmin — so each datum's center is
         [merged_optimal_center] (O(cols + rows) from marginals on a
         healthy array), no vector or placement search needed. Per-datum
         and order-free, so it fans out across the pool. *)
      Engine.map ~jobs:(Problem.jobs problem) (Problem.n_data problem)
        (fun data -> Problem.merged_optimal_center problem ~data)
  | Problem.Bounded _ ->
      (* parallel phase: merged-window placement axes, one row per datum *)
      Problem.prefetch_merged problem;
      (* serial phase: heaviest-first allocation, identical at any jobs
         count *)
      let memory = Problem.fresh_memory problem in
      let result = Array.make (Problem.n_data problem) 0 in
      List.iter
        (fun data ->
          result.(data) <- Problem.assign problem memory (`Merged data))
        (Problem.by_total_references problem);
      result

let schedule problem =
  Schedule.constant (Problem.mesh problem)
    ~n_windows:(Problem.n_windows problem)
    (placement problem)

let center_of problem ~data = (placement problem).(data)
