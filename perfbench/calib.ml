(* Host-speed calibration. The benchmark shares a small VM's host with
   other tenants, and how fast the same code runs there drifts from
   minute to minute, in two ways no run length averages out:

   - the host takes the VM's vCPUs away for a while (steal): wall time
     passes while the program does not run. The guest kernel counts it
     in /proc/stat, and process CPU time leaves it out.
   - the memory system is shared: the same instructions take longer
     while a neighbour streams through memory, in CPU time as in wall
     time.

   So every timed figure is also taken with what the host gave the VM
   while it was timed: a wall time is multiplied by the share of the
   vCPU time asked for that the host granted (busy / (busy + steal)),
   and wall and CPU times alike by [ref_s /. t], where [t] is the CPU
   time of a fixed kernel run between the ops measured. A figure so
   scaled reads as it would on a host that steals nothing and where the
   kernel takes [ref_s]. The unscaled figures go in the result file.

   The kernel calls no program code, so no change to the program moves
   it, and it allocates nothing, so the program's garbage never falls
   into its timing. Half its time is a layered min-plus relaxation over
   float arrays that fit in L2, as in the schedulers' dynamic programs;
   the other half a dependent walk through an array larger than the
   last-level cache, as through the cost arena and the heap. On the VM
   the benchmark was written on, the first half held steady while the
   second slowed by up to 1.5x, in step with the program's CPU time per
   op. *)

let nodes = 128
let layers = 36
let walk_words = 1 lsl 20 (* 8 MiB *)
let walk_steps = 5_000

let dist =
  Array.init (nodes * nodes) (fun k ->
      float_of_int (abs ((k / nodes) - (k mod nodes)) land 15))

(* A single cycle through [walk_words] slots in a fixed scrambled order
   (Sattolo's shuffle, fixed seed), so every step is a cache miss that
   depends on the one before. Built on the first sample, so that a
   process that never samples (the serve daemon) neither holds it nor
   spends its start-up building it. *)
let walk =
  lazy
    (let a = Array.init walk_words (fun i -> i) in
     let rng = Random.State.make [| 0xca1b |] in
     for i = walk_words - 1 downto 1 do
       let j = Random.State.int rng i in
       let t = a.(i) in
       a.(i) <- a.(j);
       a.(j) <- t
     done;
     a)

let cur = Array.make nodes 0.
let next = Array.make nodes 0.
let pos = ref 0

let kernel walk =
  Array.fill cur 0 nodes 0.;
  for l = 1 to layers do
    for j = 0 to nodes - 1 do
      let row = j * nodes in
      let best = ref infinity in
      for i = 0 to nodes - 1 do
        let c = Array.unsafe_get cur i +. Array.unsafe_get dist (row + i) in
        if c < !best then best := c
      done;
      Array.unsafe_set next j (!best +. float_of_int ((l + j) land 3))
    done;
    Array.blit next 0 cur 0 nodes
  done;
  let p = ref !pos in
  for _ = 1 to walk_steps do
    p := Array.unsafe_get walk !p
  done;
  pos := !p;
  ignore (Sys.opaque_identity (cur.(0) +. float_of_int !p))

(* The kernel's CPU time on the host the reported figures are scaled to:
   about its time on the 2-vCPU VM the benchmark was written on. Only
   ratios between runs matter; this fixes the scale. *)
let ref_s = 0.0025

(* CPU seconds of one kernel run. Called between ops, while the
   process's other domains are idle. *)
let sample () =
  let walk = Lazy.force walk in
  let c0 = Stat.cpu_s () in
  kernel walk;
  Stat.cpu_s () -. c0

(* [cpu_factor xs] scales a CPU time taken while the kernel times [xs]
   were sampled to the reference host: [ref_s /. median]; 1 with none. *)
let cpu_factor xs = if Array.length xs = 0 then 1. else ref_s /. Stat.median xs

(* ---------------------------------------------------------------- *)
(* Steal                                                             *)
(* ---------------------------------------------------------------- *)

(* The VM's busy and stolen CPU ticks so far, from the first line of
   /proc/stat ("cpu user nice system idle iowait irq softirq steal"). *)
type mark = { busy : float; steal : float }

let mark () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> { busy = 0.; steal = 0. }
  | ic ->
      let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
      (try
         Scanf.sscanf line "cpu %f %f %f %f %f %f %f %f"
           (fun user nice system _idle _iowait irq softirq steal ->
             { busy = user +. nice +. system +. irq +. softirq; steal })
       with Scanf.Scan_failure _ | End_of_file | Failure _ -> { busy = 0.; steal = 0. })

(* The share of the vCPU time asked for between two marks that the host
   granted; 1 when there is nothing to go by. *)
let granted a b =
  let busy = b.busy -. a.busy and steal = b.steal -. a.steal in
  if busy <= 0. || steal < 0. then 1. else busy /. (busy +. steal)

(* [speed f] runs [f] between a few kernel samples and two marks, and
   returns its result with the factor that scales its wall time. *)
let speed f =
  let k = Array.init 5 (fun _ -> sample ()) in
  let m0 = mark () in
  let r, dt = Stat.timed f in
  let m1 = mark () in
  (r, dt *. cpu_factor k *. granted m0 m1)

(* ---------------------------------------------------------------- *)
(* Samples taken during a phase                                      *)
(* ---------------------------------------------------------------- *)

(* Kernel samples with the time each was taken and the mark read with
   it, newest first. *)
type log = { mutable entries : (float * float * mark) list }

let log () = { entries = [] }

let record l =
  let m = mark () in
  let t = Stat.now () in
  l.entries <- (t, sample (), m) :: l.entries

(* [every l ~period] records a sample when the last one is at least
   [period] seconds old (or there is none): call it between ops. *)
let every l ~period =
  match l.entries with
  | (t, _, _) :: _ when Stat.now () -. t < period -> ()
  | _ -> record l

(* The log with every sample time made relative to [t0]. *)
let shift l t0 = { entries = List.map (fun (t, s, m) -> (t -. t0, s, m)) l.entries }

(* The samples taken in [t0, t1), newest first. *)
let between l t0 t1 = List.filter (fun (t, _, _) -> t >= t0 && t < t1) l.entries

let kernel_s entries = Array.of_list (List.map (fun (_, s, _) -> s) entries)

(* The factor for a wall time spanning [entries]: [cpu_factor] of their
   kernel times times the share of vCPU time granted between the oldest
   and the newest. *)
let wall_factor entries =
  let cpu = cpu_factor (kernel_s entries) in
  match (entries, List.rev entries) with
  | (_, _, newest) :: _, (_, _, oldest) :: _ -> cpu *. granted oldest newest
  | _ -> cpu
