(* The benchmark executable. [perfbench/run.py] builds and drives it; see
   that script for the command line the workloads are run with. It prints
   one JSON object as the last line of standard output. *)

module J = Obs.Json

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list; (* name, value, unit *)
  info : (string * J.t) list;
  errors : string list;
  invalid : string option; (* why the measurement itself is unusable *)
}

let ms s = 1e3 *. s

(* The per-layer metrics only the serve workload produces; the solve
   workloads print them as 0 so every traced run has the same names. *)
let serve_layer_names =
  [
    ("workloads.trace_ms", "ms");
    ("serve.decode_us", "us");
    ("serve.service_ms.p50", "ms");
    ("serve.service_ms.p95", "ms");
    ("serve.wait_ms.p50", "ms");
    ("serve.wait_ms.p95", "ms");
    ("serve.batch_mean", "1/batch");
    ("serve.busy_ratio", "ratio");
    ("serve.contexts", "count");
    ("serve.warm_ratio", "ratio");
    ("serve.overloaded", "count");
    ("loadgen.late_ms.p95", "ms");
    ("serve.backlog_end", "count");
  ]

let fill_missing metrics =
  metrics
  @ List.filter_map
      (fun (n, u) ->
        if List.exists (fun (m, _, _) -> m = n) metrics then None
        else Some (n, 0., u))
      serve_layer_names

let setup_info reps =
  ("setup_reps_s", J.List (Array.to_list (Array.map (fun x -> J.Float x) reps)))

(* Figures as timed, before the host-speed scaling. *)
let unscaled figures = J.Obj (List.map (fun (n, v, _) -> (n, J.Float v)) figures)

let sample_info lat_s =
  [
    ("samples", J.Int (Array.length lat_s));
    ("p95_tail_samples", J.Int (Stat.beyond 0.95 lat_s));
  ]

let trace_info tr =
  let abs_e, rel_e = Tracer.sum_error tr in
  [ ("span_sum_max_err_ms", J.Float (ms abs_e)); ("span_sum_max_rel_err", J.Float rel_e) ]

(* ---------------------------------------------------------------- *)
(* solve-dp / solve-local                                            *)
(* ---------------------------------------------------------------- *)

let warmup_s = 3.

(* Set-up is repeated at least this many times and for at least this
   long, and the median repetition reported, each scaled by the host
   speed measured around it (Calib.speed). *)
let setup_min_reps = 5
let setup_min_s = 2.

let run_solve kind ~seed ~seconds ~trace ~digests ~spans_out =
  let rng = Random.State.make [| seed |] in
  let (prs, trace_s), setup_s, setup_reps_s =
    Stat.repeat_median ~time:Calib.speed ~min_reps:setup_min_reps ~min_s:setup_min_s (fun () ->
        Solve_load.prepare (Solve_load.instances kind))
  in
  (* Warm-up, untimed: spawns the domain pool and lets the heap grow to
     its working size, which takes the first seconds of a run. *)
  let t0 = Stat.now () in
  let i = ref 0 in
  while !i = 0 || Stat.now () -. t0 < warmup_s do
    ignore (Solve_load.untraced_op digests prs.(!i mod Array.length prs));
    incr i
  done;
  let continue_for s ~elapsed ~cycles = cycles = 0 || elapsed < s in
  if not trace then begin
    let l =
      Solve_load.closed_loop ~rng ~continue:(continue_for seconds)
        (Solve_load.untraced_op digests) prs
    in
    let lat_s = Solve_load.latencies l in
    (* Each figure is taken per cycle (every instance once), scaled by
       the host speed measured during that cycle, and the median over the
       run's cycles reported, so that a stretch of the run slowed by the
       host moves it less. The unscaled medians go in the result file. *)
    let per_cycle ~scaled speed f =
      Stat.median
        (Array.map (fun (c : Solve_load.cycle) -> f c *. if scaled then speed c else 1.) l.cycles)
    in
    let wall (c : Solve_load.cycle) = c.wall_speed and cpu (c : Solve_load.cycle) = c.cpu_speed in
    let n (c : Solve_load.cycle) = float_of_int (Array.length c.lat_s) in
    let figures scaled =
      [
        ("op_p50_ms", ms (per_cycle ~scaled wall (fun c -> Stat.median c.lat_s)), "ms");
        ("op_p95_ms", ms (per_cycle ~scaled wall (fun c -> Stat.percentile 0.95 c.lat_s)), "ms");
        (* a rate: the median of the cycles' wall time per op, inverted *)
        ("ops_per_s", 1. /. per_cycle ~scaled wall (fun c -> c.wall_s /. n c), "1/s");
        ("cpu_ms_per_op", per_cycle ~scaled cpu (fun c -> ms c.cpu_s /. n c), "ms");
      ]
    in
    let per_cycle_info f =
      J.List (Array.to_list (Array.map (fun (c : Solve_load.cycle) -> J.Float (f c)) l.cycles))
    in
    {
      attempted = Array.length lat_s;
      failed = l.failed;
      metrics =
        (("setup_s", setup_s, "s") :: figures true)
        @ [ ("peak_rss_mb", Stat.peak_rss_mb (), "MB") ];
      info =
        setup_info setup_reps_s :: sample_info lat_s
        @ [
            ("unscaled", unscaled (figures false));
            ("cycle_wall_speed", per_cycle_info wall);
            ("cycle_cpu_speed", per_cycle_info cpu);
            ("cycles", J.Int (Array.length l.cycles));
            ( "cycle_p50_ms",
              J.List
                (Array.to_list
                   (Array.map (fun (c : Solve_load.cycle) -> J.Float (ms (Stat.median c.lat_s))) l.cycles)) );
          ];
      errors = l.errors;
      invalid = None;
    }
  end
  else begin
    let u =
      Solve_load.closed_loop ~rng ~continue:(continue_for (seconds /. 2.))
        (Solve_load.untraced_op digests) prs
    in
    let tr = Tracer.create () in
    let t, snap =
      Layers.with_counters (fun () ->
          Solve_load.closed_loop ~rng
            ~continue:(fun ~elapsed:_ ~cycles -> cycles < Array.length u.cycles)
            (Solve_load.traced_op tr digests) prs)
    in
    if spans_out <> "" then J.write_file spans_out (Tracer.to_json tr);
    let t_lat = Solve_load.latencies t and u_lat = Solve_load.latencies u in
    let ops = Array.length t_lat in
    let op_wall_s = Array.fold_left ( +. ) 0. t_lat in
    let layers = Layers.layer_metrics tr ~ops ~op_wall_s snap in
    {
      attempted = Array.length u_lat + ops;
      failed = u.failed + t.failed;
      metrics =
        fill_missing
          (layers
          @ [
              ("workloads.trace_ms", ms trace_s, "ms");
              ( "trace.overhead_ratio",
                Stat.median t_lat /. Stat.median u_lat,
                "ratio" );
            ]);
      info = [ ("traced_ops", J.Int ops); ("untraced_ops", J.Int (Array.length u_lat)) ]
             @ trace_info tr;
      errors = u.errors @ t.errors;
      invalid = None;
    }
  end

(* ---------------------------------------------------------------- *)
(* serve-mixed                                                       *)
(* ---------------------------------------------------------------- *)

(* An open-loop run whose generator fell behind, or whose backlog was
   still growing when the last request went out, measured a saturated
   daemon: it is reported invalid rather than as a latency. *)
let max_late_p95_ms = 20.
let max_backlog_end = 32

(* Seconds either side of a request's due time whose host-speed samples
   scale its latency. *)
let speed_window = 2.5

let run_serve ~seed ~seconds ~trace ~spans_out =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let module S = Serve_load in
  let setup () =
    let reqs = S.script ~seed ~seconds in
    let d = S.start () in
    ignore (S.exchange d S.warmup_lines);
    (reqs, d)
  in
  (* each daemon but the last is stopped before the next set-up starts *)
  let (reqs, d), setup_s, setup_reps_s =
    Stat.repeat_median ~discard:(fun (_, d) -> S.stop d) ~time:Calib.speed
      ~min_reps:setup_min_reps ~min_s:setup_min_s setup
  in
  let setup_rss_mb = S.peak_rss_mb d in
  let ol, peak_rss_mb =
    Fun.protect
      ~finally:(fun () -> S.stop d)
      (fun () ->
        let ol = S.open_loop d reqs in
        (ol, S.peak_rss_mb d))
  in
  (* the checker's expected answers: in-process one-shot solves *)
  let expect = S.baselines reqs in
  let n = Array.length reqs in
  let failed = ref 0 and errors = ref [] in
  Array.iter
    (fun (r : S.req) ->
      let resp = ol.responses.(r.id) in
      if not (S.is_ok resp && resp = S.expected expect r) then begin
        incr failed;
        if List.length !errors < 5 then
          errors :=
            Printf.sprintf "request %d (%s): %s" r.id (S.cls_name r.cls)
              (String.sub resp 0 (min 160 (String.length resp)))
            :: !errors
      end)
    reqs;
  (* Each latency scaled by the host speed sampled within [speed_window]
     seconds of its due time (all the phase's samples when there are
     none so near), and the daemon's CPU by the phase's. *)
  let samples = ol.calib.Calib.entries in
  let cpu_speed = Calib.cpu_factor (Calib.kernel_s samples) in
  let wall_speed = Calib.wall_factor samples in
  let scaled_latency =
    Array.map
      (fun (r : S.req) ->
        let near = Calib.between ol.calib (r.due -. speed_window) (r.due +. speed_window) in
        ol.latency_s.(r.id) *. if List.length near < 2 then wall_speed else Calib.wall_factor near)
      reqs
  in
  let late_p95_ms = ms (Stat.percentile 0.95 ol.late_s) in
  let invalid =
    if late_p95_ms > max_late_p95_ms then
      Some (Printf.sprintf "generator ran late: p95 %.1f ms > %.0f ms" late_p95_ms max_late_p95_ms)
    else if ol.backlog_end > max_backlog_end then
      Some
        (Printf.sprintf "backlog grew: %d requests unanswered at the last send > %d"
           ol.backlog_end max_backlog_end)
    else None
  in
  (* per-class median of a per-request figure, to see where the mix's
     percentiles come from *)
  let by_class per_req =
    J.Obj
      (List.map
         (fun c ->
           let xs =
             Array.of_list
               (List.filter_map
                  (fun (r : S.req) -> if r.cls = c then Some (ms per_req.(r.id)) else None)
                  (Array.to_list reqs))
           in
           ( S.cls_name c,
             J.Obj [ ("n", J.Int (Array.length xs)); ("p50_ms", J.Float (Stat.median xs)) ] ))
         [ S.Local; S.Fault; S.Dp; S.Fresh; S.Timed; S.Arrays ])
  in
  let p95 = Stat.percentile 0.95 ol.latency_s in
  let tail_classes =
    List.fold_left
      (fun acc (r : S.req) ->
        if ol.latency_s.(r.id) > p95 then
          let k = S.cls_name r.cls in
          (k, 1 + Option.value ~default:0 (List.assoc_opt k acc)) :: List.remove_assoc k acc
        else acc)
      [] (Array.to_list reqs)
  in
  let info =
    setup_info setup_reps_s :: sample_info ol.latency_s
    @ [
        ("peak_rss_mb_after_setup", J.Float setup_rss_mb);
        ("late_ms_p95", J.Float late_p95_ms);
        ("backlog_end", J.Int ol.backlog_end);
        ("latency_by_class", by_class ol.latency_s);
        ("above_p95_by_class", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) tail_classes));
      ]
  in
  if not trace then
    {
      attempted = n;
      failed = !failed;
      metrics =
        [
          ("setup_s", setup_s, "s");
          ("op_p50_ms", ms (Stat.median scaled_latency), "ms");
          ("op_p95_ms", ms (Stat.percentile 0.95 scaled_latency), "ms");
          (* the offered rate unless the daemon saturates: not scaled *)
          ("ops_per_s", float_of_int n /. ol.elapsed_s, "1/s");
          ("cpu_ms_per_op", cpu_speed *. ms ol.cpu_s /. float_of_int n, "ms");
          ("peak_rss_mb", peak_rss_mb, "MB");
        ];
      info =
        info
        @ [
            ( "unscaled",
              unscaled
                [
                  ("op_p50_ms", ms (Stat.median ol.latency_s), "ms");
                  ("op_p95_ms", ms (Stat.percentile 0.95 ol.latency_s), "ms");
                  ("cpu_ms_per_op", ms ol.cpu_s /. float_of_int n, "ms");
                ] );
            ("wall_speed", J.Float wall_speed);
            ("cpu_speed", J.Float cpu_speed);
            ("speed_samples", J.Int (List.length samples));
          ];
      errors = List.rev !errors;
      invalid;
    }
  else begin
    let service, busy_s = S.service reqs ol in
    (* the same requests once more, decomposed into the program's layers *)
    let st = { S.ctxs = Hashtbl.create 64; warm = Hashtbl.create 64 } in
    List.iter (fun l -> ignore (S.traced_request (Tracer.create ()) st l)) S.warmup_lines;
    let tr = Tracer.create () in
    let traced = Array.make n 0. in
    let (), snap =
      Layers.with_counters (fun () ->
          Array.iter
            (fun (r : S.req) ->
              let plan, dt = Tracer.op tr (fun () -> S.traced_request tr st r.line) in
              Obs.Span.reset ();
              traced.(r.id) <- dt;
              if S.plan_of_response (S.expected expect r) <> Some plan then begin
                incr failed;
                if List.length !errors < 5 then
                  errors := Printf.sprintf "request %d: traced plan differs" r.id :: !errors
              end)
            reqs)
    in
    if spans_out <> "" then J.write_file spans_out (Tracer.to_json tr);
    let wait = Array.mapi (fun i l -> l -. service.(i)) ol.latency_s in
    let d k = S.stat_int ol.stats_after k - S.stat_int ol.stats_before k in
    let faulted = Array.fold_left (fun a (r : S.req) -> if r.cls = S.Fault then a + 1 else a) 0 reqs in
    let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
    let self = Tracer.self_by_name tr in
    let decode_s = Option.value ~default:0. (Hashtbl.find_opt self "serve.decode") in
    let trace_s = S.named_trace_s () in
    let layers =
      Layers.layer_metrics tr ~ops:n ~op_wall_s:(Array.fold_left ( +. ) 0. traced) snap
    in
    {
      attempted = n;
      failed = !failed;
      metrics =
        layers
        @ [
            ("workloads.trace_ms", ms trace_s, "ms");
            ("serve.decode_us", 1e6 *. decode_s /. float_of_int n, "us");
            ("serve.service_ms.p50", ms (Stat.median service), "ms");
            ("serve.service_ms.p95", ms (Stat.percentile 0.95 service), "ms");
            ("serve.wait_ms.p50", ms (Stat.median wait), "ms");
            ("serve.wait_ms.p95", ms (Stat.percentile 0.95 wait), "ms");
            ("serve.batch_mean", ratio (d "requests") (d "batches"), "1/batch");
            ("serve.busy_ratio", busy_s /. ol.elapsed_s, "ratio");
            ("serve.contexts", float_of_int (S.stat_int ol.stats_after "contexts"), "count");
            ("serve.warm_ratio", ratio (d "warm_sessions") faulted, "ratio");
            ("serve.overloaded", float_of_int (d "overloaded"), "count");
            ("loadgen.late_ms.p95", late_p95_ms, "ms");
            ("serve.backlog_end", float_of_int ol.backlog_end, "count");
            ( "trace.overhead_ratio",
              Stat.median traced /. Stat.median service,
              "ratio" );
          ];
      info =
        info
        @ [ ("service_by_class", by_class service); ("traced_by_class", by_class traced) ]
        @ trace_info tr;
      errors = List.rev !errors;
      invalid;
    }
  end

(* ---------------------------------------------------------------- *)
(* Entry point                                                       *)
(* ---------------------------------------------------------------- *)

let print_digests () =
  List.iter
    (fun kind ->
      let prs, _ = Solve_load.prepare (Solve_load.instances kind) in
      Array.iter
        (fun (prep : Solve_load.prepared) ->
          let _, _, plan =
            Layers.solve_cold ~policy:prep.policy ~fault:prep.fault prep.mesh prep.trace
              prep.inst.algorithm
          in
          Printf.printf "%s %s\n%!" prep.inst.key (Layers.plan_digest plan))
        prs)
    [ `Dp; `Local ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 in
  let plant = ref false and spans_out = ref "" and write_digests = ref false in
  let daemon = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME solve-dp | solve-local | serve-mixed");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--plant-bad-digest", Arg.Set plant, " make one solve instance's reference digest wrong (self-test)");
      ("--spans-out", Arg.Set_string spans_out, "PATH write the traced run's spans here");
      ("--print-digests", Arg.Set write_digests, " print the plan digest of every solve instance");
      ("--daemon", Arg.Set daemon, " serve requests on stdin/stdout at jobs = 1 (serve-mixed starts it)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !write_digests then (print_digests (); exit 0);
  if !daemon then begin
    Layers.jobs := 1;
    Serve_load.daemon_main ();
    exit 0
  end;
  let trace = !trace = 1 in
  (* solve-dp runs at jobs = 2, the machine's core count, so the DP's
     fan-out on the Engine pool is what it measures. The other two run at
     jobs = 1: at jobs = 2 their many short fan-outs made wall time on a
     2-vCPU VM swing by 20-40% from run to run while CPU per op held
     within 10%, too much for their bounds. *)
  Layers.jobs := if !workload = "solve-dp" then 2 else 1;
  let solve kind =
    let digests = Solve_load.load_digests "perfbench/digests.txt" in
    (* the self-test: one instance's reference digest made wrong *)
    if !plant then
      Hashtbl.replace digests (List.hd (Solve_load.instances kind)).Solve_load.key "0";
    run_solve kind ~seed:!seed ~seconds:!seconds ~trace ~digests ~spans_out:!spans_out
  in
  let o =
    match !workload with
    | "solve-dp" -> solve `Dp
    | "solve-local" -> solve `Local
    | "serve-mixed" -> run_serve ~seed:!seed ~seconds:!seconds ~trace ~spans_out:!spans_out
    | w ->
        prerr_endline ("unknown workload " ^ w);
        exit 2
  in
  let error_rate = float_of_int o.failed /. float_of_int (max 1 o.attempted) in
  List.iter (fun e -> prerr_endline ("check failed: " ^ e)) o.errors;
  Option.iter (fun r -> prerr_endline ("run invalid: " ^ r)) o.invalid;
  print_endline
    (J.to_string
       (J.Obj
          [
            ("workload", J.String !workload);
            ("seed", J.Int !seed);
            ("seconds", J.Float !seconds);
            ("trace", J.Int (if trace then 1 else 0));
            ("jobs", J.Int !Layers.jobs);
            ("nproc", J.Int (Domain.recommended_domain_count ()));
            ("ocaml_version", J.String Sys.ocaml_version);
            ("correct", J.Bool (o.failed = 0 && o.invalid = None));
            ("valid", J.Bool (o.invalid = None));
            ("invalid_reason", match o.invalid with Some r -> J.String r | None -> J.Null);
            ("attempted", J.Int o.attempted);
            ("failed", J.Int o.failed);
            ("error_rate", J.Float error_rate);
            ( "metrics",
              J.Obj
                (List.map
                   (fun (n, v, u) -> (n, J.Obj [ ("value", J.Float v); ("unit", J.String u) ]))
                   o.metrics) );
            ("info", J.Obj o.info);
            ("errors", J.List (List.map (fun e -> J.String e) o.errors));
          ]))
