type kind = Read | Write

type t = {
  n_data : int;
  (* per datum, per kind: processor rank -> reference count *)
  reads : (int, int) Hashtbl.t array;
  writes_ : (int, int) Hashtbl.t array;
  (* dense combined (reads + writes) counts, indexed by processor rank and
     grown on demand; the source the separable cost model reads marginals
     from. [combined.(data).(proc)] is maintained incrementally by [add]
     and summed row-wise by [merge]. *)
  mutable combined : int array array;
  (* per-datum combined reference totals, maintained by [add] *)
  totals : int array;
}

let create ~n_data =
  if n_data <= 0 then invalid_arg "Window.create: n_data must be positive";
  {
    n_data;
    reads = Array.init n_data (fun _ -> Hashtbl.create 4);
    writes_ = Array.init n_data (fun _ -> Hashtbl.create 1);
    combined = Array.make n_data [||];
    totals = Array.make n_data 0;
  }

let n_data t = t.n_data

let check_data t data =
  if data < 0 || data >= t.n_data then
    invalid_arg (Printf.sprintf "Window: data id %d out of range" data)

let table t kind data =
  match kind with Read -> t.reads.(data) | Write -> t.writes_.(data)

let bump_combined t ~data ~proc ~count =
  let row = t.combined.(data) in
  let row =
    if proc < Array.length row then row
    else begin
      let grown = Array.make (max (proc + 1) (2 * Array.length row)) 0 in
      Array.blit row 0 grown 0 (Array.length row);
      t.combined.(data) <- grown;
      grown
    end
  in
  row.(proc) <- row.(proc) + count;
  t.totals.(data) <- t.totals.(data) + count

let add ?(kind = Read) t ~data ~proc ~count =
  check_data t data;
  if proc < 0 then invalid_arg "Window.add: negative processor rank";
  if count < 0 then invalid_arg "Window.add: negative count";
  if count > 0 then begin
    let tbl = table t kind data in
    (match Hashtbl.find_opt tbl proc with
    | Some c -> Hashtbl.replace tbl proc (c + count)
    | None -> Hashtbl.add tbl proc count);
    bump_combined t ~data ~proc ~count
  end

let profile_of_table tbl =
  Hashtbl.fold
    (fun proc count acc -> if count > 0 then (proc, count) :: acc else acc)
    tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let read_profile t data =
  check_data t data;
  profile_of_table t.reads.(data)

let write_profile t data =
  check_data t data;
  profile_of_table t.writes_.(data)

(* The dense row is naturally in ascending rank order, so the combined
   profile needs no hashtable copy and no sort. *)
let profile t data =
  check_data t data;
  let row = t.combined.(data) in
  let acc = ref [] in
  for proc = Array.length row - 1 downto 0 do
    if row.(proc) > 0 then acc := (proc, row.(proc)) :: !acc
  done;
  !acc

let iter_profile t data f =
  check_data t data;
  let row = t.combined.(data) in
  for proc = 0 to Array.length row - 1 do
    if row.(proc) > 0 then f ~proc ~count:row.(proc)
  done

let iter_kind_profile ~kind t data f =
  check_data t data;
  Hashtbl.iter
    (fun proc count -> if count > 0 then f ~proc ~count)
    (table t kind data)

let marginals t ~data ~cols ~rows =
  check_data t data;
  if cols <= 0 || rows <= 0 then
    invalid_arg "Window.marginals: mesh extents must be positive";
  let mx = Array.make cols 0 and my = Array.make rows 0 in
  let row = t.combined.(data) in
  let size = cols * rows in
  (* track (x, y) incrementally instead of a div/mod per rank — the walk
     over the dense row is the hot half of every separable cost fill *)
  let x = ref 0 and y = ref 0 in
  for proc = 0 to Array.length row - 1 do
    let count = row.(proc) in
    if count > 0 then begin
      if proc >= size then
        invalid_arg
          (Printf.sprintf
             "Window.marginals: processor rank %d outside %dx%d mesh" proc
             rows cols);
      mx.(!x) <- mx.(!x) + count;
      my.(!y) <- my.(!y) + count
    end;
    incr x;
    if !x = cols then begin
      x := 0;
      incr y
    end
  done;
  (mx, my)

let count_table tbl = Hashtbl.fold (fun _ c acc -> acc + c) tbl 0

let references t data =
  check_data t data;
  t.totals.(data)

let writes t data =
  check_data t data;
  count_table t.writes_.(data)

let total_references t = Array.fold_left ( + ) 0 t.totals

let referenced_data t =
  let acc = ref [] in
  for data = t.n_data - 1 downto 0 do
    if t.totals.(data) > 0 then acc := data :: !acc
  done;
  !acc

let is_empty t = Array.for_all (fun c -> c = 0) t.totals

(* Merging sums the dense combined rows and totals directly and adds the
   kind tables entry-wise — no per-reference [add] round-trip through
   [bump_combined]. Equal to replaying every (proc, count) reference of
   [src] into [into] (the regression property in test/test_fastpath.ml):
   every operation is a commutative sum, so table iteration order is
   immaterial. *)
let merge_table ~into src =
  Hashtbl.iter
    (fun proc count ->
      match Hashtbl.find_opt into proc with
      | Some c -> Hashtbl.replace into proc (c + count)
      | None -> Hashtbl.add into proc count)
    src

let merge_into ~into src =
  for data = 0 to into.n_data - 1 do
    merge_table ~into:into.reads.(data) src.reads.(data);
    merge_table ~into:into.writes_.(data) src.writes_.(data);
    let srow = src.combined.(data) in
    let slen = Array.length srow in
    if slen > 0 then begin
      let row = into.combined.(data) in
      let row =
        if slen <= Array.length row then row
        else begin
          let grown = Array.make (max slen (2 * Array.length row)) 0 in
          Array.blit row 0 grown 0 (Array.length row);
          into.combined.(data) <- grown;
          grown
        end
      in
      for proc = 0 to slen - 1 do
        row.(proc) <- row.(proc) + srow.(proc)
      done
    end;
    into.totals.(data) <- into.totals.(data) + src.totals.(data)
  done

let merge a b =
  if a.n_data <> b.n_data then
    invalid_arg "Window.merge: mismatched data spaces";
  let m = create ~n_data:a.n_data in
  merge_into ~into:m a;
  merge_into ~into:m b;
  m

let copy t =
  let c = create ~n_data:t.n_data in
  merge_into ~into:c t;
  c

let merge_list = function
  | [] -> invalid_arg "Window.merge_list: empty list"
  | w :: ws -> List.fold_left merge (copy w) ws

let equal a b =
  a.n_data = b.n_data
  && begin
       let ok = ref true in
       for data = 0 to a.n_data - 1 do
         if
           read_profile a data <> read_profile b data
           || write_profile a data <> write_profile b data
         then ok := false
       done;
       !ok
     end

let max_proc t =
  let mx = ref (-1) in
  Array.iter
    (fun row ->
      for proc = Array.length row - 1 downto !mx + 1 do
        if row.(proc) > 0 && proc > !mx then mx := proc
      done)
    t.combined;
  !mx

let pp fmt t =
  let data = referenced_data t in
  Format.fprintf fmt "@[<v>window (%d data referenced, %d refs total)"
    (List.length data) (total_references t);
  List.iter
    (fun d ->
      Format.fprintf fmt "@ data %d:" d;
      List.iter
        (fun (p, c) -> Format.fprintf fmt " p%d x%d" p c)
        (profile t d);
      match write_profile t d with
      | [] -> ()
      | ws ->
          Format.fprintf fmt " (writes:";
          List.iter (fun (p, c) -> Format.fprintf fmt " p%d x%d" p c) ws;
          Format.fprintf fmt ")")
    data;
  Format.fprintf fmt "@]"
