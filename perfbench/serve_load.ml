(* The open-loop serve workload: the real daemon loop ([Server.run] in
   its own process, over Unix pipes) fed by one select-loop client at a
   fixed seeded arrival schedule. Each latency runs from the request's
   due time to the moment its response line is read. *)

module J = Obs.Json

(* Offered load, requests per second. Fixed, so every commit sees the
   same arrivals. At this rate the daemon is busy about a fifth of the
   time on the reference commit (serve.busy_ratio): near half busy, the
   head-of-line waits behind GOMCDS waves made the median vary by more
   than the benchmark's bounds from run to run. *)
let rate = 10.

type cls = Local | Fault | Dp | Fresh | Timed | Arrays

let cls_name = function
  | Local -> "local"
  | Fault -> "fault"
  | Dp -> "dp"
  | Fresh -> "fresh"
  | Timed -> "timed"
  | Arrays -> "arrays"

type req = {
  id : int;
  line : string;
  fields : (string * J.t) list; (* the request without its id *)
  body : string; (* [fields] rendered: what the baseline keys on *)
  cls : cls;
  due : float; (* seconds after the start of the measured phase *)
}

type named = {
  workload : string;
  size : int;
  rows : int;
  cols : int;
  torus : bool;
  unbounded : bool;
}

let named ?(torus = false) ?(unbounded = false) workload size rows cols =
  { workload; size; rows; cols; torus; unbounded }

let instance n =
  [
    ("workload", J.String n.workload);
    ("size", J.Int n.size);
    ( "mesh",
      J.Obj
        [ ("rows", J.Int n.rows); ("cols", J.Int n.cols); ("torus", J.Bool n.torus) ]
    );
  ]
  @ if n.unbounded then [ ("unbounded", J.Bool true) ] else []

(* The named instances clients keep asking about: their contexts stay in
   the daemon's cache. *)
let local_named =
  [|
    named "1" 16 16 16;
    named ~torus:true ~unbounded:true "4" 16 16 16;
    named "stencil" 16 16 16;
    named ~torus:true "cholesky" 16 12 12;
  |]

let dp_named =
  [| named ~unbounded:true "1" 12 12 12 |]

(* Seconds to generate the named instances' traces, as the daemon does on
   their first context miss. *)
let named_trace_s () =
  snd
    (Stat.timed (fun () ->
         Array.iter
           (fun n ->
             ignore
               (Layers.build_trace n.workload ~n:n.size
                  (Layers.build_mesh ~rows:n.rows ~cols:n.cols ~torus:n.torus)))
           (Array.append local_named dp_named)))

let local_algos = [| "scds"; "lomcds"; "lomcds-grouped" |]
let dp_algos = [| "gomcds"; "gomcds-grouped" |]
let pick rng a = a.(Random.State.int rng (Array.length a))
let algorithm a = ("algorithm", J.String a)

let cross xs ys f = List.concat_map (fun x -> List.map (f x) ys) xs

(* The request bodies of each class. A run deals each class's set out
   evenly in seeded order, so the work in a run does not drift with the
   seed. Faults come from a small pool of seeds, so faulted requests
   repeat and run on patched warm sessions; [fresh] holds exactly as many
   never-seen instances as the run sends. *)
let choices ~fresh cls =
  let named = Array.to_list local_named and algos = Array.to_list local_algos in
  let local extra = cross named algos (fun n a -> instance n @ (algorithm a :: extra)) in
  match cls with
  | Local -> local []
  | Fault ->
      (* three node faults (no slab row goes dirty) to one link fault
         (dirty rows refilled, BFS distances) *)
      let f kind seed rate = local [ ("fault", J.Obj [ ("seed", J.Int seed); (kind, J.Float rate) ]) ] in
      List.concat_map (fun seed -> f "node_rate" seed 0.03) [ 0; 1; 2; 3; 4; 5 ]
      @ List.concat_map (fun seed -> f "link_rate" seed 0.02) [ 0; 1 ]
  | Dp ->
      cross (Array.to_list dp_named) (Array.to_list dp_algos) (fun n a ->
          instance n @ [ algorithm a ])
  | Timed -> local [ ("timed", J.Bool true) ]
  | Arrays ->
      cross [ "1"; "2"; "5" ] algos (fun w a ->
          [
            ("workload", J.String w);
            ("size", J.Int 8);
            ("arrays", J.String "2x2of4x4");
            algorithm a;
          ])
  | Fresh -> fresh

(* An instance the daemon has not seen: decode, trace generation and
   Context.create on the request path. *)
let fresh_instance rng =
  let workload = pick rng [| "1"; "2"; "3"; "4"; "5"; "stencil"; "cholesky" |] in
  instance
    (named
       ~torus:(Random.State.bool rng)
       ~unbounded:(Random.State.bool rng)
       workload
       (pick rng [| 8; 10; 12; 14 |])
       (pick rng [| 6; 8; 10 |])
       (pick rng [| 6; 8; 10 |]))
  @ [ algorithm (pick rng local_algos) ]

(* [k] distinct never-seen instances. They are drawn from a fixed
   generator, not the workload seed, so that their traces and contexts,
   and so the daemon's memory, are the same in every run of a length;
   the seed orders them and times their arrivals like every other
   request. *)
let fresh_set k =
  let rng = Random.State.make [| 0xf5e5 |] in
  let key n = J.to_string (J.Obj n) in
  let named =
    List.map (fun n -> key (instance n)) (Array.to_list (Array.append local_named dp_named))
  in
  let rec draw seen acc k =
    if k = 0 then List.rev acc
    else
      let body = fresh_instance rng in
      let k_body = key (List.filter (fun (f, _) -> f <> "algorithm") body) in
      if List.mem k_body seen then draw seen acc k
      else draw (k_body :: seen) (body :: acc) (k - 1)
  in
  draw named [] k

(* [dealer rng ~fresh] draws a class's next request body. *)
let dealer rng ~fresh =
  let decks = Hashtbl.create 8 in
  fun cls ->
    let deck =
      match Hashtbl.find_opt decks cls with
      | Some (_ :: _ as d) -> d
      | Some [] | None ->
          let a = Array.of_list (choices ~fresh cls) in
          Stat.shuffle rng a;
          Array.to_list a
    in
    Hashtbl.replace decks cls (List.tl deck);
    List.hd deck

let line_of id fields = J.to_string (J.Obj (("id", J.Int id) :: fields))

(* The request script: exact class shares, each class's bodies dealt
   evenly (see [choices]), and arrivals one per 1/rate slot. Each class
   is spread evenly over the run, its k requests one in each k-th of it
   at a seeded place, and each arrival sits at a seeded offset in the
   middle [arrival_jitter] of its slot. So the offered load, and how
   often a request lands behind a GOMCDS wave, are the same in every
   stretch of every run, while the seed still moves every request. *)
let arrival_jitter = 0.4

let script ~seed ~seconds =
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let n = max 40 (int_of_float (rate *. seconds)) in
  let share f = max 1 (int_of_float (Float.round (f *. float_of_int n))) in
  let fixed =
    [
      (Dp, share 0.10);
      (Fault, share 0.20);
      (Fresh, share 0.05);
      (Timed, share 0.03);
      (Arrays, share 0.03);
    ]
  in
  let rest = n - List.fold_left (fun a (_, k) -> a + k) 0 fixed in
  let placed =
    Array.of_list
      (List.concat_map
         (fun (c, k) ->
           List.init k (fun j ->
               ((float_of_int j +. Random.State.float rng 1.) /. float_of_int k, c)))
         ((Local, rest) :: fixed))
  in
  Array.sort compare placed;
  let deal = dealer rng ~fresh:(fresh_set (List.assoc Fresh fixed)) in
  let slot = seconds /. float_of_int n in
  Array.mapi
    (fun i (_, cls) ->
      let fields = deal cls in
      let offset = 0.5 +. (arrival_jitter *. (Random.State.float rng 1. -. 0.5)) in
      {
        id = i;
        line = line_of i fields;
        fields;
        body = J.to_string (J.Obj fields);
        cls;
        due = (float_of_int i +. offset) *. slot;
      })
    placed

(* One scds request per named instance: fills the context cache and
   leaves a warm session per context before timing. *)
let warmup_lines =
  Array.to_list
    (Array.mapi
       (fun i n -> line_of (-1 - i) (instance n @ [ algorithm "scds" ]))
       (Array.append local_named dp_named))

(* ---------------------------------------------------------------- *)
(* Expected answers                                                  *)
(* ---------------------------------------------------------------- *)

let id_prefix id = Printf.sprintf "{\"id\":%d," id

(* In-process one-shot answers for every distinct request body, from a
   fresh memo-less server: what each served [ok] response must equal,
   byte for byte, once its id is put back. *)
let baselines reqs =
  let server =
    Serve.Server.create
      ~config:
        { (Serve.Server.default_config ()) with Serve.Server.jobs = !Layers.jobs; memo = false }
      ()
  in
  let tbl = Hashtbl.create 256 in
  Array.iter
    (fun r ->
      if not (Hashtbl.mem tbl r.body) then begin
        let resp = Serve.Server.handle_line server (line_of 0 r.fields) in
        let p = id_prefix 0 in
        let rest = String.sub resp (String.length p) (String.length resp - String.length p) in
        Hashtbl.add tbl r.body rest
      end)
    reqs;
  tbl

let expected tbl r = id_prefix r.id ^ Hashtbl.find tbl r.body

let is_ok resp =
  let p = "\"ok\":true" in
  let n = String.length p in
  let rec scan i =
    i + n <= String.length resp
    && (String.sub resp i n = p || (i < 64 && scan (i + 1)))
  in
  scan 0

(* ---------------------------------------------------------------- *)
(* The daemon and its client                                         *)
(* ---------------------------------------------------------------- *)

type daemon = {
  req_w : Unix.file_descr;
  resp_r : Unix.file_descr;
  pid : int;
  buf : Buffer.t;
  chunk : Bytes.t;
}

let config () =
  { (Serve.Server.default_config ()) with Serve.Server.jobs = !Layers.jobs }

(* The daemon: [Server.run] on standard input and output, what
   [bench.exe --daemon] runs. *)
let daemon_main () =
  Serve.Server.run (Serve.Server.create ~config:(config ()) ()) ~input:Unix.stdin
    ~output:Unix.stdout

(* Starts the daemon in a process of its own, this executable run with
   --daemon: one domain at jobs = 1, so its minor collections never wait
   on the client's domain, and its CPU and peak resident set are its
   own. *)
let start () =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe [| exe; "--daemon" |] req_r resp_w Unix.stderr in
  Unix.close req_r;
  Unix.close resp_w;
  { req_w; resp_r; pid; buf = Buffer.create 65536; chunk = Bytes.create 65536 }

let send d line =
  let s = Bytes.unsafe_of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length s then
      match Unix.write d.req_w s off (Bytes.length s - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* Complete response lines now readable, waiting at most [timeout]
   seconds for the first byte; [None] at end of stream. *)
let recv d ~timeout =
  match Unix.select [ d.resp_r ] [] [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> Some []
  | [], _, _ -> Some []
  | _ -> (
      match Unix.read d.resp_r d.chunk 0 (Bytes.length d.chunk) with
      | 0 -> None
      | k ->
          Buffer.add_subbytes d.buf d.chunk 0 k;
          let s = Buffer.contents d.buf in
          let parts = String.split_on_char '\n' s in
          let rec split = function
            | [ last ] ->
                Buffer.clear d.buf;
                Buffer.add_string d.buf last;
                []
            | l :: rest -> l :: split rest
            | [] -> []
          in
          Some (split parts)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> Some [])

(* Sends [lines] and waits for as many responses. *)
let exchange d lines =
  List.iter (send d) lines;
  let want = List.length lines in
  let got = ref [] and n = ref 0 in
  let deadline = Stat.now () +. 120. in
  while !n < want do
    if Stat.now () > deadline then failwith "daemon did not answer";
    match recv d ~timeout:1. with
    | None -> failwith "daemon closed its output"
    | Some ls ->
        got := List.rev_append ls !got;
        n := !n + List.length ls
  done;
  List.rev !got

(* Closes the daemon's input, reads its output to the end and reaps it;
   a daemon that has not exited 60 s later is killed. *)
let stop d =
  (try Unix.close d.req_w with Unix.Unix_error _ -> ());
  let deadline = Stat.now () +. 60. in
  let rec drain () =
    if Stat.now () < deadline then
      match recv d ~timeout:1. with None -> () | Some _ -> drain ()
  in
  (try drain () with Unix.Unix_error _ -> ());
  if Stat.now () >= deadline then (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  let rec reap () =
    match Unix.waitpid [] d.pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
  in
  reap ();
  try Unix.close d.resp_r with Unix.Unix_error _ -> ()

(* User+system CPU seconds the daemon process has used so far, from
   /proc/<pid>/stat: utime and stime, fields 14 and 15, in the kernel's
   fixed 100 Hz user-visible ticks. Fields are counted from the last ')',
   since the command name before it may hold spaces; state, field 3,
   comes first after it. *)
let cpu_s d =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" d.pid) in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  let after = String.rindex line ')' + 2 in
  let f = String.split_on_char ' ' (String.sub line after (String.length line - after)) in
  let field k = float_of_string (List.nth f (k - 3)) in
  (field 14 +. field 15) /. 100.

let peak_rss_mb d = Stat.peak_rss_mb ~pid:d.pid ()

let stats d =
  match exchange d [ {|{"id":"stats","op":"stats"}|} ] with
  | [ l ] -> (
      match J.parse l with
      | Ok (J.Obj f) -> (
          match List.assoc_opt "result" f with Some (J.Obj r) -> r | _ -> [])
      | _ -> [])
  | _ -> []

let stat_int fields k =
  match List.assoc_opt k fields with Some (J.Int i) -> i | _ -> 0

(* Id of a response line, read off its fixed-order prefix. *)
let response_id line =
  let p = "{\"id\":" in
  let lp = String.length p in
  if String.length line > lp && String.sub line 0 lp = p then
    let stop = String.index_from line lp ',' in
    int_of_string_opt (String.sub line lp (stop - lp))
  else None

type open_loop = {
  latency_s : float array; (* due -> response read, per request id *)
  recv_at : float array; (* read time, seconds after the phase start *)
  late_s : float array; (* send time - due *)
  responses : string array;
  backlog_end : int; (* requests unanswered when the last one was sent *)
  elapsed_s : float; (* phase start -> last response read *)
  cpu_s : float; (* the daemon's *)
  stats_before : (string * J.t) list;
  stats_after : (string * J.t) list;
  calib : Calib.log; (* host-speed samples, times from the phase start *)
}

(* The client takes a host-speed sample at most this often, and only
   while no request is outstanding and the next is not due for
   [calib_gap] seconds, so that no send and no read waits on it. *)
let calib_period = 0.1
let calib_gap = 0.008

(* The measured phase: send every request at its due time, read
   responses as they come, never wait on a response before sending. *)
let open_loop d reqs =
  let n = Array.length reqs in
  let latency = Array.make n nan and recv_at = Array.make n nan in
  let late = Array.make n 0. and responses = Array.make n "" in
  let stats_before = stats d in
  let cpu0 = cpu_s d in
  let calib = Calib.log () in
  let t0 = Stat.now () in
  let next = ref 0 and received = ref 0 and backlog_end = ref 0 in
  let last_progress = ref t0 in
  while !received < n do
    let now = Stat.now () in
    while !next < n && t0 +. reqs.(!next).due <= now do
      let r = reqs.(!next) in
      late.(r.id) <- Stat.now () -. (t0 +. r.due);
      send d r.line;
      incr next;
      if !next = n then backlog_end := n - !received
    done;
    if !received = !next && !next < n && t0 +. reqs.(!next).due -. Stat.now () > calib_gap then
      Calib.every calib ~period:calib_period;
    let timeout =
      if !next < n then Float.max 0. (t0 +. reqs.(!next).due -. Stat.now ()) else 1.
    in
    match recv d ~timeout with
    | None -> failwith "daemon closed its output during the run"
    | Some [] ->
        if Stat.now () -. !last_progress > 60. then
          failwith "daemon made no progress for 60 s"
    | Some ls ->
        let t = Stat.now () in
        last_progress := t;
        List.iter
          (fun l ->
            match response_id l with
            | Some id when id >= 0 && id < n ->
                recv_at.(id) <- t -. t0;
                latency.(id) <- t -. (t0 +. reqs.(id).due);
                responses.(id) <- l;
                incr received
            | _ -> failwith ("unexpected response: " ^ String.sub l 0 (min 80 (String.length l))))
          ls
  done;
  let elapsed = Stat.now () -. t0 in
  let cpu = cpu_s d -. cpu0 in
  let stats_after = stats d in
  {
    latency_s = latency;
    recv_at;
    late_s = late;
    responses;
    backlog_end = !backlog_end;
    elapsed_s = elapsed;
    cpu_s = cpu;
    stats_before;
    stats_after;
    calib = Calib.shift calib t0;
  }

(* ---------------------------------------------------------------- *)
(* Traced replay                                                     *)
(* ---------------------------------------------------------------- *)

(* Waves the daemon formed, recovered from read times: a wave's
   responses are written back to back once the whole wave is solved. *)
let waves reqs (ol : open_loop) =
  let order = Array.map (fun r -> r.id) reqs in
  Array.sort (fun a b -> Float.compare ol.recv_at.(a) ol.recv_at.(b)) order;
  let waves = ref [] and cur = ref [] and last = ref neg_infinity in
  Array.iter
    (fun id ->
      if ol.recv_at.(id) -. !last > 0.001 && !cur <> [] then begin
        waves := List.rev !cur :: !waves;
        cur := []
      end;
      cur := id :: !cur;
      last := ol.recv_at.(id))
    order;
  if !cur <> [] then waves := List.rev !cur :: !waves;
  List.rev !waves

(* [service reqs ol] replays the daemon's waves through
   [Server.process_batch] in process. Returns each request's solve
   latency and the summed wall of the waves, both in seconds. *)
let service reqs ol =
  let server = Serve.Server.create ~config:(config ()) () in
  ignore (Serve.Server.process_batch server warmup_lines);
  let out = Array.make (Array.length reqs) nan in
  let busy = ref 0. in
  List.iter
    (fun ids ->
      let res, dt =
        Stat.timed (fun () ->
            Serve.Server.process_batch server (List.map (fun i -> reqs.(i).line) ids))
      in
      busy := !busy +. dt;
      List.iter2 (fun i (_, dt) -> out.(i) <- dt) ids res)
    (waves reqs ol);
  (out, !busy)

type replay = {
  ctxs : (string, Sched.Context.t * Pim.Mesh.t * Reftrace.Trace.t) Hashtbl.t;
  warm : (string, Sched.Problem.t) Hashtbl.t;
}

let plan_of_response resp =
  match J.parse resp with
  | Ok (J.Obj f) -> (
      match List.assoc_opt "result" f with
      | Some (J.Obj r) -> (
          match List.assoc_opt "plan" r with Some (J.String p) -> Some p | _ -> None)
      | _ -> None)
  | _ -> None

(* One request through the program's layers, in the order the server
   calls them: decode, context lookup (trace generation and
   Context.create on a miss), a cold or patched warm session, the
   decomposed solve, accounting, the optional timed replay, and the plan
   render. Returns the plan text. *)
let traced_request tr st line =
  let open Sched in
  let span name f = Tracer.with_ tr name f in
  match span "serve.decode" (fun () -> Serve.Protocol.decode line) with
  | Error (_, e) -> failwith e.Serve.Protocol.message
  | Ok { Serve.Protocol.op = Serve.Protocol.Solve { instance = i; algorithm; fault; timed; _ }; _ } -> (
      let algo = Scheduler.of_name algorithm in
      match i.Serve.Protocol.arrays with
      | Some spec ->
          span "multi.solve" (fun () ->
              let group = Multi.Array_group.of_spec ~inter_cost:i.inter_cost ~torus:i.mesh.torus spec in
              let trace =
                Multi.Array_group.remap_virtual_trace group
                  (Layers.build_trace i.workload ~n:i.size (Multi.Array_group.virtual_mesh group))
              in
              let policy =
                Layers.policy ~bounded:(not i.unbounded) trace
                  (Pim.Mesh.create ~rows:1 ~cols:(Multi.Array_group.size group))
              in
              let gp = Multi.Group_problem.create ~policy ~jobs:!Layers.jobs group trace in
              let plan, _ = Multi.Group_solver.evaluate gp algo in
              Multi.Group_serial.to_string plan)
      | None ->
          let m = i.mesh in
          let key =
            Printf.sprintf "%s/%d/%dx%d/%b/%b" i.workload i.size m.rows m.cols m.torus i.unbounded
          in
          let ctx, mesh, trace =
            match Hashtbl.find_opt st.ctxs key with
            | Some c -> c
            | None ->
                let mesh = Layers.build_mesh ~rows:m.rows ~cols:m.cols ~torus:m.torus in
                let trace =
                  span "workloads.trace" (fun () -> Layers.build_trace i.workload ~n:i.size mesh)
                in
                let policy = Layers.policy ~bounded:(not i.unbounded) trace mesh in
                let ctx =
                  span "context.create" (fun () -> Context.create ~policy ~jobs:!Layers.jobs mesh trace)
                in
                Hashtbl.replace st.ctxs key (ctx, mesh, trace);
                (ctx, mesh, trace)
          in
          let fault =
            match fault with
            | None -> Pim.Fault.none
            | Some (Serve.Protocol.Fault_seeded { seed; node_rate; link_rate; _ }) ->
                Pim.Fault.inject ~seed ~node_rate ~link_rate mesh
            | Some (Serve.Protocol.Fault_explicit { dead_nodes; dead_links; _ }) ->
                Pim.Fault.create ~dead_nodes ~dead_links ()
          in
          let p =
            match Hashtbl.find_opt st.warm key with
            | Some base ->
                span "problem.with_fault_patch" (fun () -> Problem.with_fault_patch base fault)
            | None -> span "problem.of_context" (fun () -> Problem.of_context ~fault ctx)
          in
          let schedule = Layers.traced_solve tr p algo in
          Hashtbl.replace st.warm key p;
          ignore (span "schedule.cost" (fun () -> Schedule.cost schedule trace));
          (match timed with
          | None -> ()
          | Some model ->
              span "sim.timed_run" (fun () ->
                  ignore
                    (Pim.Timed_simulator.run ~fault ~model mesh
                       (Schedule.to_rounds schedule trace))));
          span "schedule.render" (fun () -> Schedule_serial.to_string schedule))
  | Ok _ -> failwith "not a solve request"
