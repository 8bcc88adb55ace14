(* In-memory span recorder for the traced run. Spans are opened by the
   benchmark's own code, around calls into the program's public
   functions, or copied in from the spans the program itself recorded
   inside such a call (see [record]); all of them belong to the driving
   domain: a layer that fans out on the Engine pool is one span on the
   caller. Children of a span are therefore sequential, and a span's self
   time is its duration minus the sum of its direct children's
   durations. Times are read off the clock [Obs.Span] records with, so
   the two kinds of span nest exactly. *)

type span = {
  id : int;
  parent : int; (* -1 for an op root *)
  op : int;
  name : string;
  start : float; (* seconds, monotonic *)
  stop : float;
}

type t = {
  mutable log : span list; (* reverse completion order *)
  mutable stack : int list;
  mutable next_id : int;
  mutable op : int;
  mutable walls : (int * float) list; (* op id, op wall in seconds *)
  totals : (string, float) Hashtbl.t; (* see [add] *)
}

let create () =
  { log = []; stack = []; next_id = 0; op = 0; walls = []; totals = Hashtbl.create 8 }

let now () = Obs.Span.now_us () *. 1e-6

(* [record t ?parent name ~start ~stop] adds a span that has already
   ended, under [parent] (by default the innermost open span), and
   returns its id. *)
let record t ?parent name ~start ~stop =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent =
    match parent with
    | Some p -> p
    | None -> ( match t.stack with p :: _ -> p | [] -> -1)
  in
  t.log <- { id; parent; op = t.op; name; start; stop } :: t.log;
  id

(* A named running total beside the spans, such as the work a layer did. *)
let add t name v =
  Hashtbl.replace t.totals name (v +. Option.value ~default:0. (Hashtbl.find_opt t.totals name))

let total t name = Option.value ~default:0. (Hashtbl.find_opt t.totals name)

let with_ t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let start = now () in
  Fun.protect
    ~finally:(fun () ->
      let stop = now () in
      t.stack <- List.tl t.stack;
      t.log <- { id; parent; op = t.op; name; start; stop } :: t.log)
    f

(* [op t f] runs [f] as one operation: a root span named "op" whose self
   time is the wall no layer span covers ("other"). Returns [f]'s result
   and the op's wall in seconds. *)
let op t f =
  t.op <- t.op + 1;
  let t0 = now () in
  let r = with_ t "op" f in
  let wall = now () -. t0 in
  t.walls <- (t.op, wall) :: t.walls;
  (r, wall)

let spans t = List.rev t.log

(* Self seconds per span id. *)
let self_times t =
  let child_sum = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev =
          Option.value ~default:0. (Hashtbl.find_opt child_sum s.parent)
        in
        Hashtbl.replace child_sum s.parent (prev +. (s.stop -. s.start)))
    t.log;
  List.map
    (fun s ->
      let kids = Option.value ~default:0. (Hashtbl.find_opt child_sum s.id) in
      (s, s.stop -. s.start -. kids))
    (spans t)

(* Total self seconds per layer name; the op roots' self time is reported
   as "other". *)
let self_by_name t =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let name = if s.parent < 0 then "other" else s.name in
      let prev = Option.value ~default:0. (Hashtbl.find_opt tbl name) in
      Hashtbl.replace tbl name (prev +. self))
    (self_times t);
  tbl

(* The largest gap, over the ops, between an op's wall and the sum of
   its spans' self times (layers plus "other"): absolute seconds and as a
   share of the op's wall. *)
let sum_error t =
  let sums = Hashtbl.create 256 in
  List.iter
    (fun ((s : span), self) ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt sums s.op) in
      Hashtbl.replace sums s.op (prev +. self))
    (self_times t);
  List.fold_left
    (fun (abs_e, rel_e) (op, wall) ->
      let sum = Option.value ~default:0. (Hashtbl.find_opt sums op) in
      let e = Float.abs (wall -. sum) in
      (Float.max abs_e e, Float.max rel_e (e /. wall)))
    (0., 0.) t.walls

(* Number of spans named [name]. *)
let count t name =
  List.fold_left (fun a s -> if s.name = name then a + 1 else a) 0 t.log

(* Chrome trace-event document (load in chrome://tracing or Perfetto). *)
let to_json t =
  let base = match spans t with [] -> 0. | s :: _ -> s.start in
  Obs.Json.Obj
    [
      ( "traceEvents",
        Obs.Json.List
          (List.map
             (fun s ->
               Obs.Json.Obj
                 [
                   ("name", Obs.Json.String s.name);
                   ("ph", Obs.Json.String "X");
                   ("ts", Obs.Json.Float ((s.start -. base) *. 1e6));
                   ("dur", Obs.Json.Float ((s.stop -. s.start) *. 1e6));
                   ("pid", Obs.Json.Int 1);
                   ("tid", Obs.Json.Int 1);
                   ( "args",
                     Obs.Json.Obj
                       [
                         ("op", Obs.Json.Int s.op);
                         ("id", Obs.Json.Int s.id);
                         ("parent", Obs.Json.Int s.parent);
                       ] );
                 ])
             (spans t)) );
    ]
