let validate_initial mesh ~n_data initial =
  if Array.length initial <> n_data then
    invalid_arg
      (Printf.sprintf "Adapt: initial placement has %d entries for %d data"
         (Array.length initial) n_data);
  Array.iteri
    (fun d rank ->
      if rank < 0 || rank >= Pim.Mesh.size mesh then
        invalid_arg
          (Printf.sprintf "Adapt: datum %d starts at invalid rank %d" d rank))
    initial

(* The datum's GOMCDS layers with layer 0 re-pointed at one extra row:
   the window-0 reference costs plus the migration from the imposed
   location [start] into each candidate center. The session's slab is
   copied, not written, so its cached rows stay valid. *)
let layers_from problem ~data ~start =
  let slab, offsets = Problem.layer_slab problem ~data in
  let size = Pim.Mesh.size (Problem.mesh problem) in
  let dim = Bigarray.Array1.dim slab in
  let vectors =
    Bigarray.Array1.create Bigarray.Int Bigarray.C_layout (dim + size)
  in
  Bigarray.Array1.blit slab (Bigarray.Array1.sub vectors 0 dim);
  let enter = offsets.(0) in
  for j = 0 to size - 1 do
    vectors.{dim + j} <- slab.{enter + j} + Problem.distance problem start j
  done;
  let offsets = Array.copy offsets in
  offsets.(0) <- dim;
  (vectors, offsets)

let run ?capacity ~initial mesh trace =
  let n_data = Reftrace.Data_space.size (Reftrace.Trace.space trace) in
  let n_windows = Reftrace.Trace.n_windows trace in
  validate_initial mesh ~n_data initial;
  let schedule = Schedule.create mesh ~n_windows ~n_data in
  let memories =
    match capacity with
    | None -> None
    | Some c ->
        if c * Pim.Mesh.size mesh < n_data then
          invalid_arg
            (Printf.sprintf
               "Adapt.run: %d data cannot fit in %d processors of capacity %d"
               n_data (Pim.Mesh.size mesh) c);
        Some
          (Array.init n_windows (fun _ -> Pim.Memory.create mesh ~capacity:c))
  in
  let problem = Problem.create mesh trace in
  List.iter
    (fun data ->
      let vectors, offsets =
        layers_from problem ~data ~start:initial.(data)
      in
      let centers =
        match memories with
        | None ->
            snd (Option.get (Problem.solve_layers problem ~vectors ~offsets))
        | Some mems ->
            let allowed ~layer j = not (Pim.Memory.is_full mems.(layer) j) in
            let result =
              Problem.solve_layers problem ~allowed ~vectors ~offsets
            in
            let _, centers = Option.get result in
            Array.iteri
              (fun layer rank ->
                let ok = Pim.Memory.allocate mems.(layer) rank in
                assert ok)
              centers;
            centers
      in
      Array.iteri
        (fun w rank -> Schedule.set_center schedule ~window:w ~data rank)
        centers)
    (Ordering.by_total_references trace);
  schedule

let from_row_wise ?capacity mesh trace =
  let initial = Baseline.row_wise mesh (Reftrace.Trace.space trace) in
  run ?capacity ~initial mesh trace

type recovery = {
  imposed_static : int;
  adaptive : int;
  free_optimal : int;
  recovered : float;
}

(* Cost of never moving: the imposed placement run statically, PLUS no
   initial migration (the data are already there). *)
let static_cost mesh trace initial =
  let space = Reftrace.Trace.space trace in
  let total = ref 0 in
  List.iter
    (fun window ->
      List.iter
        (fun data ->
          total :=
            !total
            + Reftrace.Data_space.volume_of space data
              * Cost.reference_cost mesh window ~data ~center:initial.(data))
        (Reftrace.Window.referenced_data window))
    (Reftrace.Trace.windows trace);
  !total

let adaptive_cost mesh trace initial schedule =
  (* total schedule cost plus the charged migration out of the imposed
     placement into window 0 *)
  let space = Reftrace.Trace.space trace in
  let base = Schedule.total_cost schedule trace in
  let entry = ref 0 in
  for data = 0 to Schedule.n_data schedule - 1 do
    entry :=
      !entry
      + Reftrace.Data_space.volume_of space data
        * Pim.Mesh.distance mesh initial.(data)
            (Schedule.center schedule ~window:0 ~data)
  done;
  base + !entry

let recovery ?capacity ~initial mesh trace =
  let n_data = Reftrace.Data_space.size (Reftrace.Trace.space trace) in
  validate_initial mesh ~n_data initial;
  let imposed_static = static_cost mesh trace initial in
  let schedule = run ?capacity ~initial mesh trace in
  let adaptive = adaptive_cost mesh trace initial schedule in
  let free_optimal = Bounds.lower_bound_in (Problem.create mesh trace) in
  let recovered =
    let headroom = imposed_static - free_optimal in
    if headroom <= 0 then 1.
    else float_of_int (imposed_static - adaptive) /. float_of_int headroom
  in
  { imposed_static; adaptive; free_optimal; recovered }
