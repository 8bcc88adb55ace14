(* The closed-loop solve workloads: cold one-shot solves, one after
   another, over a fixed instance matrix whose order the seed shuffles.
   A run measures whole cycles of the matrix, so every instance weighs
   the same in every run whatever the seed. *)

open Sched

type inst = {
  key : string;
  workload : string;
  n : int;
  rows : int;
  cols : int;
  torus : bool;
  bounded : bool;
  link_fault : bool;
  algorithm : Scheduler.algorithm;
}

let make ?(link_fault = false) ~workload ~n ~rows ~cols ~torus ~bounded algo =
  let algorithm = Scheduler.of_name algo in
  {
    key =
      Printf.sprintf "%s/n%d/%s%dx%d/%s%s/%s" workload n
        (if torus then "torus" else "mesh")
        rows cols
        (if bounded then "bounded" else "unbounded")
        (if link_fault then "/linkfault" else "")
        algo;
    workload;
    n;
    rows;
    cols;
    torus;
    bounded;
    link_fault;
    algorithm;
  }

let matrix ~workloads ~algos =
  List.concat_map
    (fun workload ->
      List.concat_map
        (fun torus ->
          List.concat_map
            (fun bounded ->
              List.map
                (make ~workload ~n:16 ~rows:16 ~cols:16 ~torus ~bounded)
                algos)
            [ true; false ])
        [ false; true ])
    workloads

(* solve-dp: the layered DP is nearly all of these solves. Bounded
   instances run it serially, unbounded ones on the pool, and the
   link-fault instance forces the non-separable callback DP (at 8x8, so
   its cost sits beside the others rather than dwarfing them). *)
let dp_instances =
  matrix ~workloads:[ "1"; "5" ] ~algos:[ "gomcds"; "gomcds-grouped" ]
  @ List.map
      (make ~link_fault:true ~workload:"1" ~n:16 ~rows:8 ~cols:8 ~torus:false
         ~bounded:false)
      [ "gomcds"; "gomcds-grouped" ]

(* solve-local: no DP; arena fill and argmin, grouping, placement and
   accounting. *)
let local_instances =
  matrix
    ~workloads:[ "1"; "2"; "3"; "4"; "5"; "stencil"; "cholesky"; "reduction" ]
    ~algos:[ "scds"; "lomcds"; "lomcds-grouped" ]

let instances = function
  | `Dp -> dp_instances
  | `Local -> local_instances

(* The fixed link-fault set of the solve-dp fault instance. *)
let link_fault mesh = Pim.Fault.inject ~seed:11 ~node_rate:0. ~link_rate:0.05 mesh

type prepared = {
  inst : inst;
  mesh : Pim.Mesh.t;
  trace : Reftrace.Trace.t;
  policy : Problem.capacity_policy;
  fault : Pim.Fault.t;
}

(* Set-up: generate every trace the matrix uses, and build one context
   per trace so its memoised windows are warm before timing. Returns the
   prepared instances and the seconds spent generating traces. *)
let prepare insts =
  let traces = Hashtbl.create 16 in
  let trace_s = ref 0. in
  let prepared =
    List.map
      (fun inst ->
        let mesh =
          Layers.build_mesh ~rows:inst.rows ~cols:inst.cols ~torus:inst.torus
        in
        let tkey = (inst.workload, inst.n, inst.rows, inst.cols, inst.torus) in
        let trace =
          match Hashtbl.find_opt traces tkey with
          | Some t -> t
          | None ->
              let t, dt =
                Stat.timed (fun () -> Layers.build_trace inst.workload ~n:inst.n mesh)
              in
              trace_s := !trace_s +. dt;
              ignore (Context.create ~jobs:!Layers.jobs mesh t);
              Hashtbl.add traces tkey t;
              t
        in
        {
          inst;
          mesh;
          trace;
          policy = Layers.policy ~bounded:inst.bounded trace mesh;
          fault = (if inst.link_fault then link_fault mesh else Pim.Fault.none);
        })
      insts
  in
  (Array.of_list prepared, !trace_s)

(* ---------------------------------------------------------------- *)
(* Output checks                                                     *)
(* ---------------------------------------------------------------- *)

(* The plan digests of the reference commit, one "key hex" per line. *)
let load_digests path =
  let tbl = Hashtbl.create 128 in
  (match open_in path with
  | exception Sys_error _ -> ()
  | ic ->
      (try
         while true do
           match String.split_on_char ' ' (String.trim (input_line ic)) with
           | [ k; d ] -> Hashtbl.replace tbl k d
           | _ -> ()
         done
       with End_of_file -> ());
      close_in ic);
  tbl

(* [check digests prep schedule plan] is [None] when the plan matches the
   reference digest and a bounded schedule fits its memories, and the
   failure otherwise. *)
let check digests prep schedule plan =
  match Hashtbl.find_opt digests prep.inst.key with
  | None -> Some (Printf.sprintf "%s: no reference digest" prep.inst.key)
  | Some d when d <> Layers.plan_digest plan ->
      Some (Printf.sprintf "%s: plan digest differs from the reference" prep.inst.key)
  | Some _ -> (
      match prep.policy with
      | Problem.Unbounded -> None
      | Problem.Bounded capacity -> (
          match Schedule.check_capacity schedule ~capacity with
          | None -> None
          | Some (w, r, load) ->
              Some
                (Printf.sprintf "%s: window %d rank %d holds %d > %d" prep.inst.key
                   w r load capacity)))

(* ---------------------------------------------------------------- *)
(* The closed loop                                                   *)
(* ---------------------------------------------------------------- *)

(* A cycle's figures, and the factors that scale its wall and CPU
   times to the reference host (see Calib). The kernel's own time is
   left out of [wall_s] and [cpu_s]. *)
type cycle = {
  lat_s : float array;
  wall_s : float;
  cpu_s : float;
  wall_speed : float;
  cpu_speed : float;
}

type loop = { cycles : cycle array; failed : int; errors : string list }

let latencies l = Array.concat (Array.to_list (Array.map (fun c -> c.lat_s) l.cycles))

(* Seconds between calibration samples: one before an op, when the last
   is this old. About 2.5% of a run. *)
let calib_period = 0.1

(* [closed_loop ~rng ~continue f prs] runs whole seeded permutations of
   [prs] through [f] while [continue] allows another cycle, taking host
   calibration samples between ops. [f] returns the op's wall and its
   check verdict. *)
let closed_loop ~rng ~continue f prs =
  let failed = ref 0 and errors = ref [] and cycles = ref [] in
  let cal = Calib.log () in
  let t0 = Stat.now () in
  let note e = if List.length !errors < 5 then errors := e :: !errors in
  while continue ~elapsed:(Stat.now () -. t0) ~cycles:(List.length !cycles) do
    let order = Array.copy prs in
    Stat.shuffle rng order;
    let lat = ref [] and cal_wall = ref 0. and cal_cpu = ref 0. in
    let m0 = Calib.mark () in
    let c0 = Stat.cpu_s () and w0 = Stat.now () in
    Array.iter
      (fun prep ->
        let cc = Stat.cpu_s () and cw = Stat.now () in
        Calib.every cal ~period:calib_period;
        cal_cpu := !cal_cpu +. (Stat.cpu_s () -. cc);
        cal_wall := !cal_wall +. (Stat.now () -. cw);
        match f prep with
        | dt, verdict ->
            lat := dt :: !lat;
            Option.iter
              (fun e ->
                incr failed;
                note e)
              verdict
        | exception e ->
            incr failed;
            note (prep.inst.key ^ ": " ^ Printexc.to_string e))
      order;
    let w1 = Stat.now () and c1 = Stat.cpu_s () in
    let cpu_speed = Calib.cpu_factor (Calib.kernel_s (Calib.between cal w0 w1)) in
    cycles :=
      {
        lat_s = Array.of_list (List.rev !lat);
        wall_s = w1 -. w0 -. !cal_wall;
        cpu_s = c1 -. c0 -. !cal_cpu;
        wall_speed = cpu_speed *. Calib.granted m0 (Calib.mark ());
        cpu_speed;
      }
      :: !cycles
  done;
  { cycles = Array.of_list (List.rev !cycles); failed = !failed; errors = List.rev !errors }

let untraced_op digests prep =
  let (schedule, _, plan), dt =
    Stat.timed (fun () ->
        Layers.solve_cold ~policy:prep.policy ~fault:prep.fault prep.mesh prep.trace
          prep.inst.algorithm)
  in
  (dt, check digests prep schedule plan)

let traced_op tr digests prep =
  let (schedule, _, plan), dt =
    Tracer.op tr (fun () ->
        Layers.solve_traced tr ~policy:prep.policy ~fault:prep.fault prep.mesh
          prep.trace prep.inst.algorithm)
  in
  Obs.Span.reset ();
  (dt, check digests prep schedule plan)
