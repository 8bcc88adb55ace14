(* Differential harness for the flat-arena / argmin / axis-table fast
   paths: every rewritten layer is pinned byte-identical to the surviving
   oracle it replaced.

   - arena-backed vectors and path costs vs the naive cost oracle
     ([Pim_oracle.Naive_cost]);
   - [Cost.argmin_of_marginals] vs the full-vector ascending argmin, on
     meshes and tori (circular prefix sums);
   - the separable [Layered.solve_axes] core and the [Layered.solve_table]
     fallback vs the full-table dense DP ([Pim_oracle.Layered_oracle]),
     on tie-heavy vectors, degenerate rings and lines, even and odd tori
     and masks that kill whole rows; [Layered.solve_group] vs a dense
     whole-group oracle; [Grouping]'s [`Global] centers vs the closure
     DP they used to run through ([Pim_oracle.Callback_dp]);
   - the [Problem.t]-ported [Annealing]/[Online] vs verbatim copies of
     their pre-port standalone implementations, at fixed seeds, serial
     and at jobs = 4;
   - [Window.merge]'s direct row summation vs replaying every reference. *)

let torus44 = Pim.Mesh.torus ~rows:4 ~cols:4
let torus35 = Pim.Mesh.torus ~rows:3 ~cols:5

(* one mesh and one torus, even and odd extents *)
let meshes = [ Gen.mesh44; torus35 ]

let problem_of ?policy ?(jobs = 1) mesh trace =
  Sched.Problem.create ?policy ~jobs mesh trace

(* ------------------------------------------------------------------ *)
(* (a) arena rows vs per-array vectors                                 *)
(* ------------------------------------------------------------------ *)

let oracle_vector = Pim_oracle.Naive_cost.cost_vector

let prop_arena_matches_per_array_vectors mesh label =
  let arb = Gen.trace_arbitrary ~mesh ~max_data:5 ~max_windows:4 ~max_count:3 () in
  QCheck.Test.make
    ~name:("arena rows equal per-array vectors, " ^ label)
    ~count:40 arb (fun trace ->
      let problem = problem_of mesh trace in
      let m = Pim.Mesh.size mesh in
      let windows = Reftrace.Trace.windows trace in
      List.for_all
        (fun data ->
          let slab, offs = Sched.Problem.layer_slab problem ~data in
          List.mapi (fun w window -> (w, window)) windows
          |> List.for_all (fun (w, window) ->
                 let oracle = oracle_vector mesh window ~data in
                 let copy =
                   Sched.Problem.cost_vector problem ~window:w ~data
                 in
                 (* non-referencing windows must share the zero row *)
                 (Reftrace.Window.references window data > 0
                 || offs.(w) = 0)
                 && oracle = copy
                 && Array.for_all Fun.id
                      (Array.init m (fun c ->
                           slab.{offs.(w) + c} = oracle.(c)
                           && Sched.Problem.cost_entry problem ~window:w
                                ~data c
                              = oracle.(c)))
                 && Gen.search_agrees problem
                      (`Window (w, data))
                      (Pim_oracle.Processor_list.of_cost_vector oracle)))
        (List.init (Sched.Problem.n_data problem) Fun.id))

(* ------------------------------------------------------------------ *)
(* (b) argmin_of_marginals vs full-vector argmin                       *)
(* ------------------------------------------------------------------ *)

let vector_argmin v =
  let best = ref 0 in
  for i = 1 to Array.length v - 1 do
    if v.(i) < v.(!best) then best := i
  done;
  !best

let prop_argmin_matches_vector mesh label =
  let arb = Gen.single_datum_window_arbitrary ~mesh ~max_count:3 () in
  QCheck.Test.make
    ~name:("argmin_of_marginals equals vector argmin, " ^ label)
    ~count:100 arb (fun window ->
      let wrap = Pim.Mesh.wraps mesh
      and cols = Pim.Mesh.cols mesh
      and rows = Pim.Mesh.rows mesh in
      let m =
        Reftrace.Window.marginals window ~data:0 ~cols ~rows
      in
      let center, cost = Sched.Cost.argmin_of_marginals ~wrap ~cols ~rows m in
      let v = Sched.Cost.cost_vector mesh window ~data:0 in
      center = vector_argmin v && cost = v.(center))

let prop_problem_centers_match_vector mesh label =
  let arb = Gen.trace_arbitrary ~mesh ~max_data:5 ~max_windows:4 ~max_count:3 () in
  QCheck.Test.make
    ~name:("Problem.optimal_center equals vector argmin, " ^ label)
    ~count:40 arb (fun trace ->
      let problem = problem_of mesh trace in
      let n_windows = Sched.Problem.n_windows problem in
      List.for_all
        (fun data ->
          Sched.Problem.merged_optimal_center problem ~data
          = vector_argmin (Sched.Problem.merged_vector problem ~data)
          && List.for_all
               (fun w ->
                 Sched.Problem.optimal_center problem ~window:w ~data
                 = vector_argmin
                     (Sched.Problem.cost_vector problem ~window:w ~data))
               (List.init n_windows Fun.id))
        (List.init (Sched.Problem.n_data problem) Fun.id))

(* ------------------------------------------------------------------ *)
(* (c) separable layered DP vs the full-table dense oracle             *)
(* ------------------------------------------------------------------ *)

let shape_of mesh =
  {
    Pathgraph.Layered.cols = Pim.Mesh.cols mesh;
    rows = Pim.Mesh.rows mesh;
    wrap = Pim.Mesh.wraps mesh;
  }

(* random layered instance over a real mesh: vectors plus, for the
   filtered variant, a per-(layer, node) mask (not forced feasible — an
   infeasible instance must yield None on both sides). Half the
   instances are tie-heavy (entries 0-2), some layers are all zero, and
   the mask kills whole mesh rows and columns now and then, so entire
   source lines of the next step are unreachable. *)
let layered_instance_gen mesh =
  let open QCheck.Gen in
  let m = Pim.Mesh.size mesh in
  let cols = Pim.Mesh.cols mesh in
  int_range 1 5 >>= fun n_layers ->
  oneofl [ 2; 20 ] >>= fun hi ->
  array_size (return (n_layers * m)) (int_range 0 hi) >>= fun flat ->
  array_size (return n_layers) (frequencyl [ (1, true); (3, false) ])
  >>= fun zero_layer ->
  array_size (return (n_layers * m)) (frequencyl [ (6, true); (1, false) ])
  >>= fun mask ->
  array_size (return n_layers) (int_range (-1) (Pim.Mesh.rows mesh - 1))
  >>= fun dead_row ->
  array_size (return n_layers) (int_range (-1) (cols - 1)) >>= fun dead_col ->
  let flat =
    Array.mapi (fun i v -> if zero_layer.(i / m) then 0 else v) flat
  in
  let mask =
    Array.mapi
      (fun i ok ->
        let layer = i / m and j = i mod m in
        ok && j / cols <> dead_row.(layer) && j mod cols <> dead_col.(layer))
      mask
  in
  return (n_layers, flat, mask)

let layered_print (n_layers, flat, mask) =
  Format.asprintf "%d layers, vectors [|%s|], mask [|%s|]" n_layers
    (String.concat ";" (Array.to_list (Array.map string_of_int flat)))
    (String.concat ";"
       (Array.to_list (Array.map (fun b -> if b then "1" else "0") mask)))

let prop_solve_axes_matches_dense mesh label =
  let arb = QCheck.make ~print:layered_print (layered_instance_gen mesh) in
  QCheck.Test.make
    ~name:("solve_axes equals full-table solve_dense, " ^ label)
    ~count:60 arb (fun (n_layers, flat, mask) ->
      let m = Pim.Mesh.size mesh in
      let dist = Pim_oracle.Naive_cost.distance_table mesh in
      let shape = shape_of mesh in
      let vectors =
        Array.init n_layers (fun w -> Array.sub flat (w * m) m)
      in
      let allowed ~layer j = mask.((layer * m) + j) in
      let buffer_of a =
        Bigarray.Array1.of_array Bigarray.Int Bigarray.C_layout a
      in
      let dense = Some (Pim_oracle.Layered_oracle.solve_dense ~dist ~vectors) in
      let dense_filtered =
        Pim_oracle.Layered_oracle.solve_dense_filtered ~dist ~vectors ~allowed
      in
      let axes ?allowed ?offsets flat =
        Pathgraph.Layered.solve_axes ?allowed ?offsets ~shape
          ~vectors:(buffer_of flat) ~n_layers ()
      in
      let table ?allowed flat =
        Pathgraph.Layered.solve_table ?allowed ~dist ~vectors:(buffer_of flat)
          ~n_layers ()
      in
      (* explicit offsets: store the layer rows in reverse order and point
         offsets.(w) at the right one — the compact-arena access pattern *)
      let rev = Array.make (n_layers * m) 0 in
      let offsets =
        Array.init n_layers (fun w -> (n_layers - 1 - w) * m)
      in
      Array.iteri
        (fun w off -> Array.blit flat (w * m) rev off m)
        offsets;
      axes flat = dense
      && axes ~allowed flat = dense_filtered
      && axes ~offsets rev = dense
      && table flat = dense
      && table ~allowed flat = dense_filtered)

(* degenerate and odd shapes for the separable core: rings of extent 1
   and 2 (where the circular sweep must reduce to a line), single rows
   and columns, and tori of even and odd extents *)
let dp_shapes =
  [
    (Pim.Mesh.torus ~rows:1 ~cols:1, "1x1 ring");
    (Pim.Mesh.torus ~rows:1 ~cols:2, "1x2 ring");
    (Pim.Mesh.torus ~rows:2 ~cols:2, "2x2 torus");
    (Pim.Mesh.torus ~rows:2 ~cols:5, "2x5 torus");
    (Pim.Mesh.torus ~rows:1 ~cols:7, "1x7 ring");
    (Pim.Mesh.torus ~rows:6 ~cols:1, "6x1 ring");
    (Pim.Mesh.torus ~rows:6 ~cols:4, "6x4 torus");
    (Pim.Mesh.torus ~rows:5 ~cols:3, "5x3 torus");
    (Pim.Mesh.create ~rows:1 ~cols:9, "1x9 mesh");
    (Pim.Mesh.create ~rows:9 ~cols:1, "9x1 mesh");
    (Pim.Mesh.create ~rows:3 ~cols:6, "3x6 mesh");
  ]

(* Oracle for GOMCDS-grouped's [`Global] centers: the same greedy
   partition ([`Local] groups), each group's summed cost vector as a
   layer, steps priced by [Problem.distance] through the callback
   [Callback_dp.solve_filtered], dead ranks masked *)
let oracle_global_groups problem ~data =
  let local = Sched.Grouping.groups problem ~data ~centers:`Local in
  match local with
  | [] -> []
  | _ ->
      let vecs =
        Array.of_list
          (List.map
             (fun { Sched.Grouping.first; last; _ } ->
               let v = Array.make (Pim.Mesh.size (Sched.Problem.mesh problem)) 0 in
               for w = first to last do
                 let row = Sched.Problem.cost_vector problem ~window:w ~data in
                 Array.iteri (fun k c -> v.(k) <- v.(k) + c) row
               done;
               v)
             local)
      in
      let p =
        {
          Pim_oracle.Callback_dp.n_layers = Array.length vecs;
          width = Array.length vecs.(0);
          enter_cost = (fun j -> vecs.(0).(j));
          step_cost =
            (fun ~layer j k ->
              Sched.Problem.distance problem j k + vecs.(layer).(k));
        }
      in
      let _, centers =
        Option.get
          (Pim_oracle.Callback_dp.solve_filtered p ~allowed:(fun ~layer:_ j ->
               Sched.Problem.rank_alive problem j))
      in
      List.mapi (fun i g -> { g with Sched.Grouping.center = centers.(i) }) local

let prop_global_grouping_matches_closure_dp (mesh, fault, label) =
  let arb =
    Gen.trace_arbitrary ~mesh ~max_data:4 ~max_windows:6 ~max_count:3 ()
  in
  QCheck.Test.make
    ~name:("Grouping `Global centers equal the closure DP, " ^ label)
    ~count:40 arb (fun trace ->
      let problem = Sched.Problem.create ~fault mesh trace in
      List.for_all
        (fun data ->
          Sched.Grouping.groups problem ~data ~centers:`Global
          = oracle_global_groups problem ~data)
        (List.init (Sched.Problem.n_data problem) Fun.id))

let grouping_cases =
  [
    (Gen.mesh44, Pim.Fault.none, "mesh");
    (torus35, Pim.Fault.none, "torus");
    (Gen.mesh44, Pim.Fault.create ~dead_nodes:[ 0; 5; 10 ] (), "node-faulted mesh");
    ( Gen.mesh44,
      Pim.Fault.create ~dead_links:[ (1, 2); (5, 6); (6, 10) ] (),
      "link-faulted mesh" );
  ]

(* random array group for [Layered.solve_group]: 1-3 members of mixed
   shapes (meshes, tori, rings), a random member-pair fabric price,
   per-(layer, member) constants, tie-heavy vectors and a node mask *)
let group_instance_gen =
  let open QCheck.Gen in
  let shape_gen =
    triple (int_range 1 4) (int_range 1 4) bool >|= fun (cols, rows, wrap) ->
    { Pathgraph.Layered.cols; rows; wrap }
  in
  int_range 1 3 >>= fun n_members ->
  list_size (return n_members) shape_gen >>= fun shapes ->
  let shapes = Array.of_list shapes in
  let total =
    Array.fold_left (fun acc s -> acc + (s.Pathgraph.Layered.cols * s.rows)) 0 shapes
  in
  int_range 1 4 >>= fun n_layers ->
  oneofl [ 2; 12 ] >>= fun hi ->
  array_size (return (n_layers * total)) (int_range 0 hi) >>= fun flat ->
  array_size (return (n_members * n_members)) (int_range 0 6) >>= fun move ->
  array_size (return (n_layers * n_members)) (int_range 0 3) >>= fun consts ->
  array_size (return (n_layers * total)) (frequencyl [ (6, true); (1, false) ])
  >>= fun mask -> return (shapes, n_layers, flat, move, consts, mask)

let group_print (shapes, n_layers, flat, move, consts, mask) =
  let ints a = String.concat ";" (Array.to_list (Array.map string_of_int a)) in
  Format.asprintf "members [%s], %d layers, vectors [|%s|], move [|%s|], \
                   consts [|%s|], mask [|%s|]"
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun { Pathgraph.Layered.cols; rows; wrap } ->
               Printf.sprintf "%dx%d%s" rows cols (if wrap then " torus" else ""))
             shapes)))
    n_layers (ints flat) (ints move) (ints consts)
    (String.concat ";"
       (Array.to_list (Array.map (fun b -> if b then "1" else "0") mask)))

let prop_solve_group_matches_dense =
  QCheck.Test.make ~name:"solve_group equals the dense whole-group oracle"
    ~count:100
    (QCheck.make ~print:group_print group_instance_gen)
    (fun (shapes, n_layers, flat, move, consts, mask) ->
      let n_members = Array.length shapes in
      let widths = Array.map (fun s -> s.Pathgraph.Layered.cols * s.rows) shapes in
      let total = Array.fold_left ( + ) 0 widths in
      let bases = Array.make n_members 0 in
      for i = 1 to n_members - 1 do
        bases.(i) <- bases.(i - 1) + widths.(i - 1)
      done;
      let member = Array.make total 0 in
      Array.iteri
        (fun i b -> for g = b to b + widths.(i) - 1 do member.(g) <- i done)
        bases;
      (* each member's slab holds its layer rows back to back *)
      let members =
        Array.mapi
          (fun i shape ->
            let w = widths.(i) in
            let slab =
              Array.init (n_layers * w) (fun x ->
                  flat.(((x / w) * total) + bases.(i) + (x mod w)))
            in
            {
              Pathgraph.Layered.g_shape = shape;
              g_vectors =
                Bigarray.Array1.of_array Bigarray.Int Bigarray.C_layout slab;
              g_offsets = Array.init n_layers (fun l -> l * w);
            })
          shapes
      in
      let move_cost a b = move.((a * n_members) + b) in
      let consts ~layer ~member = consts.((layer * n_members) + member) in
      let allowed ~layer g = mask.((layer * total) + g) in
      let intra a b =
        let s = shapes.(member.(a)) in
        let a = a - bases.(member.(a)) and b = b - bases.(member.(b)) in
        let axis ~extent p q =
          let d = abs (p - q) in
          if s.Pathgraph.Layered.wrap then min d (extent - d) else d
        in
        axis ~extent:s.cols (a mod s.cols) (b mod s.cols)
        + axis ~extent:s.rows (a / s.cols) (b / s.cols)
      in
      let vectors = Array.init n_layers (fun l -> Array.sub flat (l * total) total) in
      Pathgraph.Layered.solve_group ~members ~move_cost ~consts ~n_layers
        ~allowed ()
      = Pim_oracle.Layered_oracle.solve_group_dense ~member ~intra ~move_cost
          ~consts
          ~vectors ~allowed)

(* ------------------------------------------------------------------ *)
(* (d) ported Annealing / Online vs their pre-port implementations     *)
(* ------------------------------------------------------------------ *)

(* Verbatim copies of the standalone implementations as they stood before
   the port onto Problem.t — the oracles the ported code must reproduce
   byte-for-byte. They intentionally bypass Problem and price everything
   through Cost directly. *)
module Oracle = struct
  let make_rng seed =
    let state = ref (if seed = 0 then 0xBEEF else seed) in
    fun bound ->
      let x = !state in
      let x = x lxor (x lsl 13) in
      let x = x lxor (x lsr 7) in
      let x = x lxor (x lsl 17) in
      state := x land max_int;
      !state mod bound

  let anneal ?capacity ?(seed = 0xBEEF) ?(iterations = 50_000) mesh trace =
    let space = Reftrace.Trace.space trace in
    let n_data = Reftrace.Data_space.size space in
    let n_windows = Reftrace.Trace.n_windows trace in
    let m = Pim.Mesh.size mesh in
    let sched =
      Sched.Baseline.schedule (Sched.Baseline.row_wise mesh space) mesh trace
    in
    let windows = Array.of_list (Reftrace.Trace.windows trace) in
    let volume = Array.init n_data (Reftrace.Data_space.volume_of space) in
    let loads = Array.make_matrix n_windows m 0 in
    for w = 0 to n_windows - 1 do
      for d = 0 to n_data - 1 do
        let r = Sched.Schedule.center sched ~window:w ~data:d in
        loads.(w).(r) <- loads.(w).(r) + 1
      done
    done;
    let rng = make_rng seed in
    let dist = Pim.Mesh.distance mesh in
    let delta w d r r' =
      let refs =
        Sched.Cost.reference_cost mesh windows.(w) ~data:d ~center:r'
        - Sched.Cost.reference_cost mesh windows.(w) ~data:d ~center:r
      in
      let edge w' =
        let other = Sched.Schedule.center sched ~window:w' ~data:d in
        dist r' other - dist r other
      in
      let moves =
        (if w > 0 then edge (w - 1) else 0)
        + if w < n_windows - 1 then edge (w + 1) else 0
      in
      volume.(d) * (refs + moves)
    in
    let initial_cost = Sched.Schedule.total_cost sched trace in
    let current = ref initial_cost in
    let temp =
      ref (float_of_int (max 1 (initial_cost / max 1 (n_data * 4))))
    in
    let cooling =
      if iterations = 0 then 1.
      else Float.exp (Float.log 0.001 /. float_of_int iterations)
    in
    for _ = 1 to iterations do
      let w = rng n_windows and d = rng n_data and r' = rng m in
      let r = Sched.Schedule.center sched ~window:w ~data:d in
      let room =
        match capacity with None -> true | Some c -> loads.(w).(r') < c
      in
      if r' <> r && room then begin
        let dl = delta w d r r' in
        let accept =
          dl <= 0
          ||
          let u = float_of_int (1 + rng 1_000_000) /. 1_000_000. in
          u < Float.exp (-.float_of_int dl /. !temp)
        in
        if accept then begin
          Sched.Schedule.set_center sched ~window:w ~data:d r';
          loads.(w).(r) <- loads.(w).(r) - 1;
          loads.(w).(r') <- loads.(w).(r') + 1;
          current := !current + dl
        end
      end;
      temp := Float.max 1e-6 (!temp *. cooling)
    done;
    sched

  let online ?capacity ?(theta = 2.) mesh trace =
    let space = Reftrace.Trace.space trace in
    let n_data = Reftrace.Data_space.size space in
    let n_windows = Reftrace.Trace.n_windows trace in
    let initial = Sched.Baseline.row_wise mesh space in
    let schedule = Sched.Schedule.create mesh ~n_windows ~n_data in
    let current = Array.copy initial in
    List.iteri
      (fun w window ->
        if w > 0 then begin
          let memory =
            match capacity with
            | None -> Pim.Memory.unbounded mesh
            | Some c -> Pim.Memory.create mesh ~capacity:c
          in
          Array.iter
            (fun rank ->
              let ok = Pim.Memory.allocate memory rank in
              assert ok)
            current;
          List.iter
            (fun data ->
              let here = current.(data) in
              let stay =
                Sched.Cost.reference_cost mesh window ~data ~center:here
              in
              Pim.Memory.release memory here;
              let candidates =
                Pim_oracle.Processor_list.for_data mesh window ~data
              in
              let best =
                match
                  Pim_oracle.Processor_list.first_available memory candidates
                with
                | Some rank -> rank
                | None -> here
              in
              let go = Sched.Cost.reference_cost mesh window ~data ~center:best in
              let move = Pim.Mesh.distance mesh here best in
              let chosen =
                if
                  best <> here
                  && float_of_int (stay - go) *. theta > float_of_int move
                then best
                else here
              in
              let ok = Pim.Memory.allocate memory chosen in
              assert ok;
              current.(data) <- chosen)
            (Sched.Ordering.by_window_references window)
        end;
        Array.iteri
          (fun data rank ->
            Sched.Schedule.set_center schedule ~window:w ~data rank)
          current)
      (Reftrace.Trace.windows trace);
    schedule
end

let capacity_of mesh trace =
  Pim.Memory.capacity_for
    ~data_count:(Reftrace.Data_space.size (Reftrace.Trace.space trace))
    ~mesh ~headroom:2

let policies mesh trace =
  [ (None, Sched.Problem.Unbounded);
    (Some (capacity_of mesh trace), Sched.Problem.Bounded (capacity_of mesh trace)) ]

let prop_annealing_port_matches mesh label =
  let arb = Gen.trace_arbitrary ~mesh ~max_data:5 ~max_windows:4 ~max_count:3 () in
  QCheck.Test.make
    ~name:("ported Annealing equals pre-port oracle, " ^ label)
    ~count:15 arb (fun trace ->
      List.for_all
        (fun (capacity, policy) ->
          List.for_all
            (fun jobs ->
              let problem = problem_of ~policy ~jobs mesh trace in
              let ported, _ =
                Sched.Annealing.anneal ~seed:7 ~iterations:400 problem
              in
              let oracle =
                Oracle.anneal ?capacity ~seed:7 ~iterations:400 mesh trace
              in
              Sched.Schedule.equal ported oracle)
            [ 1; 4 ])
        (policies mesh trace))

let prop_online_port_matches mesh label =
  let arb = Gen.trace_arbitrary ~mesh ~max_data:5 ~max_windows:4 ~max_count:3 () in
  QCheck.Test.make
    ~name:("ported Online equals pre-port oracle, " ^ label)
    ~count:25 arb (fun trace ->
      List.for_all
        (fun (capacity, policy) ->
          List.for_all
            (fun jobs ->
              let problem = problem_of ~policy ~jobs mesh trace in
              let ported = Sched.Online.schedule ~theta:1.5 problem in
              let oracle = Oracle.online ?capacity ~theta:1.5 mesh trace in
              Sched.Schedule.equal ported oracle)
            [ 1; 4 ])
        (policies mesh trace))

(* The unbounded Scds/Lomcds argmin fast paths vs the bounded placement
   search (forced by a Bounded policy with enough headroom to never bind:
   capacity >= n_data makes every allocation succeed at the processor
   list's head, i.e. the argmin). *)
let prop_unbounded_fast_paths_match mesh label =
  let arb = Gen.trace_arbitrary ~mesh ~max_data:5 ~max_windows:4 ~max_count:3 () in
  QCheck.Test.make
    ~name:("unbounded argmin fast paths equal list walks, " ^ label)
    ~count:25 arb (fun trace ->
      let n_data = Reftrace.Data_space.size (Reftrace.Trace.space trace) in
      let slack = Sched.Problem.Bounded n_data in
      List.for_all
        (fun jobs ->
          let fast = problem_of ~jobs mesh trace in
          let slow = problem_of ~policy:slack ~jobs mesh trace in
          Sched.Schedule.equal (Sched.Scds.schedule fast)
            (Sched.Scds.schedule slow)
          && Sched.Schedule.equal
               (Sched.Lomcds.schedule fast)
               (Sched.Lomcds.schedule slow))
        [ 1; 4 ])

(* ------------------------------------------------------------------ *)
(* Window.merge direct summation vs replaying every reference          *)
(* ------------------------------------------------------------------ *)

let window_pair_gen =
  let open QCheck.Gen in
  let one =
    int_range 1 24 >>= fun n_refs ->
    list_size (return n_refs)
      (pair
         (triple (int_range 0 3) (int_range 0 15) (int_range 1 3))
         bool)
  in
  pair one one

let window_of specs =
  let w = Reftrace.Window.create ~n_data:4 in
  List.iter
    (fun ((data, proc, count), write) ->
      let kind =
        if write then Reftrace.Window.Write else Reftrace.Window.Read
      in
      Reftrace.Window.add w ~kind ~data ~proc ~count)
    specs;
  w

let replay ~into src =
  for data = 0 to Reftrace.Window.n_data src - 1 do
    List.iter
      (fun (proc, count) ->
        Reftrace.Window.add into ~kind:Reftrace.Window.Read ~data ~proc
          ~count)
      (Reftrace.Window.read_profile src data);
    List.iter
      (fun (proc, count) ->
        Reftrace.Window.add into ~kind:Reftrace.Window.Write ~data ~proc
          ~count)
      (Reftrace.Window.write_profile src data)
  done

let prop_merge_equals_replay =
  QCheck.Test.make ~name:"Window.merge equals replaying every reference"
    ~count:100
    (QCheck.make window_pair_gen)
    (fun (sa, sb) ->
      let a = window_of sa and b = window_of sb in
      let merged = Reftrace.Window.merge a b in
      let replayed = Reftrace.Window.create ~n_data:4 in
      replay ~into:replayed a;
      replay ~into:replayed b;
      Reftrace.Window.equal merged replayed
      && List.for_all
           (fun data ->
             Reftrace.Window.profile merged data
             = Reftrace.Window.profile replayed data
             && Reftrace.Window.references merged data
                = Reftrace.Window.references replayed data
             && Reftrace.Window.marginals merged ~data ~cols:4 ~rows:4
                = Reftrace.Window.marginals replayed ~data ~cols:4 ~rows:4)
           [ 0; 1; 2; 3 ])

(* ------------------------------------------------------------------ *)
(* Compact-slab structure                                              *)
(* ------------------------------------------------------------------ *)

(* The arena invariants [Problem.layer_slab] promises: one row per
   referencing window plus the shared zero row; non-referencing windows
   all point at offset 0; referencing rows are laid out back-to-back in
   window order; the zero row really is all zeros. *)
let prop_layer_slab_compact mesh label =
  let arb = Gen.trace_arbitrary ~mesh ~max_data:5 ~max_windows:4 ~max_count:3 () in
  QCheck.Test.make
    ~name:("layer_slab is compact with a shared zero row, " ^ label)
    ~count:40 arb (fun trace ->
      let problem = problem_of mesh trace in
      let m = Pim.Mesh.size mesh in
      let windows = Array.of_list (Reftrace.Trace.windows trace) in
      List.for_all
        (fun data ->
          let slab, offs = Sched.Problem.layer_slab problem ~data in
          let referencing =
            List.filter
              (fun w -> Reftrace.Window.references windows.(w) data > 0)
              (List.init (Array.length windows) Fun.id)
          in
          Bigarray.Array1.dim slab = (1 + List.length referencing) * m
          && Array.for_all Fun.id
               (Array.init m (fun i -> slab.{i} = 0))
          && List.for_all2
               (fun w slot -> offs.(w) = slot * m)
               referencing
               (List.init (List.length referencing) (fun s -> s + 1))
          && Array.for_all Fun.id
               (Array.mapi
                  (fun w off ->
                    Reftrace.Window.references windows.(w) data > 0
                    || off = 0)
                  offs))
        (List.init (Sched.Problem.n_data problem) Fun.id))

(* ------------------------------------------------------------------ *)
(* Arena-backed path / trajectory costs vs the Cost-module oracle      *)
(* ------------------------------------------------------------------ *)

let oracle_path_cost = Pim_oracle.Naive_cost.path_cost

let prop_path_cost_matches mesh label =
  let arb = Gen.trace_arbitrary ~mesh ~max_data:5 ~max_windows:4 ~max_count:3 () in
  QCheck.Test.make
    ~name:("Problem.path/trajectory_cost equal Cost.path_cost, " ^ label)
    ~count:40 arb (fun trace ->
      let problem = problem_of mesh trace in
      let m = Pim.Mesh.size mesh in
      let windows = Array.of_list (Reftrace.Trace.windows trace) in
      let n_windows = Array.length windows in
      List.for_all
        (fun data ->
          (* deterministic pseudo-random centers; equality is what counts *)
          let center w = ((data * 7) + (w * 13) + 5) mod m in
          let centers = Array.init n_windows center in
          let pairs = List.init n_windows (fun w -> (w, center w)) in
          let profiles =
            List.map (fun (w, c) -> (windows.(w), c)) pairs
          in
          Sched.Problem.trajectory_cost problem ~data centers
          = oracle_path_cost mesh profiles ~data
          && Sched.Problem.path_cost problem ~data [ (0, center 0) ]
             = oracle_path_cost mesh [ (windows.(0), center 0) ] ~data)
        (List.init (Sched.Problem.n_data problem) Fun.id))

(* ------------------------------------------------------------------ *)
(* Merged-window caches vs the merge_list oracle                       *)
(* ------------------------------------------------------------------ *)

let prop_merged_matches mesh label =
  let arb = Gen.trace_arbitrary ~mesh ~max_data:5 ~max_windows:4 ~max_count:3 () in
  QCheck.Test.make
    ~name:("merged vector/center/placement equal merge_list oracle, " ^ label)
    ~count:40 arb (fun trace ->
      let problem = problem_of mesh trace in
      let merged =
        Reftrace.Window.merge_list (Reftrace.Trace.windows trace)
      in
      List.for_all
        (fun data ->
          let oracle = oracle_vector mesh merged ~data in
          Sched.Problem.merged_vector problem ~data = oracle
          && Sched.Problem.merged_optimal_center problem ~data
             = vector_argmin oracle
          && Gen.search_agrees problem (`Merged data)
               (Pim_oracle.Processor_list.of_cost_vector oracle))
        (List.init (Sched.Problem.n_data problem) Fun.id))

(* ------------------------------------------------------------------ *)
(* Window.marginals vs a direct per-reference projection               *)
(* ------------------------------------------------------------------ *)

(* The incremental (x, y) walk in [Window.marginals] vs projecting each
   profile entry with div/mod — the obvious spec it replaced. *)
let prop_marginals_oracle mesh label =
  let arb = Gen.single_datum_window_arbitrary ~mesh ~max_count:3 () in
  QCheck.Test.make
    ~name:("Window.marginals equals per-reference projection, " ^ label)
    ~count:100 arb (fun window ->
      let cols = Pim.Mesh.cols mesh and rows = Pim.Mesh.rows mesh in
      let mx = Array.make cols 0 and my = Array.make rows 0 in
      List.iter
        (fun (proc, count) ->
          mx.(proc mod cols) <- mx.(proc mod cols) + count;
          my.(proc / cols) <- my.(proc / cols) + count)
        (Reftrace.Window.profile window 0);
      Reftrace.Window.marginals window ~data:0 ~cols ~rows = (mx, my))

(* ------------------------------------------------------------------ *)
(* axis_cost vs the O(E^2) definition                                  *)
(* ------------------------------------------------------------------ *)

let axis_gen =
  let open QCheck.Gen in
  int_range 1 12 >>= fun e ->
  array_size (return e) (int_range 0 9)

let prop_axis_cost_oracle ~wrap label =
  QCheck.Test.make
    ~name:("axis_cost equals the O(E^2) definition, " ^ label)
    ~count:100
    (QCheck.make
       ~print:(fun m ->
         String.concat ";" (Array.to_list (Array.map string_of_int m)))
       axis_gen)
    (fun m ->
      let e = Array.length m in
      let d1 i j =
        let d = abs (i - j) in
        if wrap then min d (e - d) else d
      in
      let oracle =
        Array.init e (fun i ->
            Array.to_list m
            |> List.mapi (fun j w -> w * d1 i j)
            |> List.fold_left ( + ) 0)
      in
      Sched.Cost.axis_cost ~wrap m = oracle)

(* ------------------------------------------------------------------ *)
(* solve_axes input validation and Problem.merged memoization          *)
(* ------------------------------------------------------------------ *)

let solve_axes_validation_cases =
  let shape = shape_of Gen.mesh44 in
  let m = Pim.Mesh.size Gen.mesh44 in
  let buffer n =
    Bigarray.Array1.of_array Bigarray.Int Bigarray.C_layout
      (Array.make n 1)
  in
  let rejects name f = Gen.case name (fun () ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail (name ^ ": expected Invalid_argument"))
  in
  [
    rejects "solve_axes rejects a short flat buffer" (fun () ->
        Pathgraph.Layered.solve_axes ~shape ~vectors:(buffer ((2 * m) - 1))
          ~n_layers:2 ());
    rejects "solve_axes rejects a short offset table" (fun () ->
        Pathgraph.Layered.solve_axes ~offsets:[| 0 |] ~shape
          ~vectors:(buffer (2 * m)) ~n_layers:2 ());
    rejects "solve_axes rejects an out-of-range offset" (fun () ->
        Pathgraph.Layered.solve_axes ~offsets:[| 0; (m * 2) - 1 |] ~shape
          ~vectors:(buffer (2 * m)) ~n_layers:2 ());
  ]

let merged_memo_case =
  Gen.case "Problem.merged is computed once and shared" (fun () ->
      let trace =
        Gen.trace Gen.mesh44 ~n_data:2
          [ [ (0, 1, 2); (1, 3, 1) ]; [ (0, 5, 1) ] ]
      in
      let problem = problem_of Gen.mesh44 trace in
      let a = Sched.Problem.merged problem in
      let b = Sched.Problem.merged problem in
      Alcotest.(check bool) "same window value" true (a == b);
      Alcotest.(check bool) "equals merge_list" true
        (Reftrace.Window.equal a
           (Reftrace.Window.merge_list (Reftrace.Trace.windows trace))))

let unreferenced_datum_case =
  Gen.case "unreferenced datum slab is just the zero row" (fun () ->
      (* datum 1 is never referenced: its compact slab must be a single
         shared zero row with every window offset pointing at it *)
      let trace =
        Gen.trace Gen.mesh44 ~n_data:2 [ [ (0, 1, 2) ]; [ (0, 5, 1) ] ]
      in
      let problem = problem_of Gen.mesh44 trace in
      let slab, offs = Sched.Problem.layer_slab problem ~data:1 in
      Alcotest.(check int) "slab is one row"
        (Pim.Mesh.size Gen.mesh44)
        (Bigarray.Array1.dim slab);
      Alcotest.(check (array int)) "all offsets zero" (Array.make 2 0) offs;
      for i = 0 to Bigarray.Array1.dim slab - 1 do
        Alcotest.(check int) "zero row" 0 slab.{i}
      done)

let per_mesh f = List.concat_map (fun (mesh, label) -> f mesh label)
    [ (Gen.mesh44, "mesh"); (torus44, "torus"); (torus35, "odd torus") ]

(* degenerate extents for the argmin fast path: single-row meshes and a
   1-high ring, where one axis marginal has a single cell (and on the
   ring a zero wrap distance) *)
let edge_meshes =
  [
    (Pim.Mesh.create ~rows:1 ~cols:8, "1x8 mesh");
    (Pim.Mesh.create ~rows:8 ~cols:1, "8x1 mesh");
    (Pim.Mesh.torus ~rows:1 ~cols:6, "1x6 ring");
  ]

let suite =
  List.map Gen.to_alcotest
    (List.concat
       [
         List.concat_map
           (fun mesh ->
             let label =
               if Pim.Mesh.wraps mesh then "torus" else "mesh"
             in
             [
               prop_arena_matches_per_array_vectors mesh label;
               prop_problem_centers_match_vector mesh label;
               prop_solve_axes_matches_dense mesh label;
               prop_annealing_port_matches mesh label;
               prop_online_port_matches mesh label;
               prop_unbounded_fast_paths_match mesh label;
               prop_layer_slab_compact mesh label;
               prop_path_cost_matches mesh label;
               prop_merged_matches mesh label;
             ])
           meshes;
         per_mesh (fun mesh label ->
             [
               prop_argmin_matches_vector mesh label;
               prop_marginals_oracle mesh label;
             ]);
         List.map
           (fun (mesh, label) -> prop_argmin_matches_vector mesh label)
           edge_meshes;
         [
           prop_axis_cost_oracle ~wrap:false "line";
           prop_axis_cost_oracle ~wrap:true "circle";
           prop_merge_equals_replay;
         ];
         List.map
           (fun (mesh, label) -> prop_solve_axes_matches_dense mesh label)
           dp_shapes;
         List.map prop_global_grouping_matches_closure_dp grouping_cases;
         [ prop_solve_group_matches_dense ];
       ])
  @ solve_axes_validation_cases
  @ [ merged_memo_case; unreferenced_datum_case ]
