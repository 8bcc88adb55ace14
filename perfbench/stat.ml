(* Order statistics and process counters shared by the workloads. *)

(* [percentile p xs] interpolates linearly between closest ranks (the
   "type 7" estimator); [p] in [0, 1]. [nan] on an empty sample. *)
let percentile p xs =
  match Array.length xs with
  | 0 -> nan
  | n ->
      let a = Array.copy xs in
      Array.sort Float.compare a;
      let h = p *. float_of_int (n - 1) in
      let lo = int_of_float h in
      let hi = min (n - 1) (lo + 1) in
      a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile 0.5 xs

(* Samples strictly above the [p] percentile. *)
let beyond p xs =
  let q = percentile p xs in
  Array.fold_left (fun a x -> if x > q then a + 1 else a) 0 xs

(* Process user+system CPU seconds, every domain included, from
   getrusage (microseconds, where times() counts 10 ms ticks). *)
let cpu_s () = Sys.time ()

(* VmHWM, the peak resident set of this process (or of child [pid]), in
   MiB. *)
let peak_rss_mb ?pid () =
  let proc = match pid with Some p -> string_of_int p | None -> "self" in
  match open_in ("/proc/" ^ proc ^ "/status") with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kb -> float_of_int kb /. 1024.)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

let now = Obs.Clock.now_s

(* Wall seconds of [f ()]. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* [repeat_median ~min_reps ~min_s f] runs [f] at least [min_reps]
   times and until [min_s] seconds have gone by, and returns the last
   result with the median wall time and every repetition's — how set-up
   is timed, so that neither one slow repetition nor a short slow stretch
   of the host decides the figure. [discard] is applied, untimed, to every
   result but the last before the next repetition starts. [time] times
   one repetition (by default its wall time). *)
let repeat_median ?(discard = ignore) ?(time = timed) ~min_reps ~min_s f =
  let t0 = now () in
  let rec go times last =
    if List.length times >= min_reps && now () -. t0 >= min_s then
      (Option.get last, median (Array.of_list times), Array.of_list (List.rev times))
    else begin
      Option.iter discard last;
      let r, dt = time f in
      go (dt :: times) (Some r)
    end
  in
  go [] None

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done
