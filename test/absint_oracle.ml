(* Differential oracle for the certified bounds: the list-based absint
   kernel, kept verbatim from before the step machinery moved onto flat
   arrays. Each step's heats are a (point, heat) list, neighbours an
   array of arrays, and the diffusion fold closes over a float ref —
   about 1,400 minor words per orbit step. [Tdfa_absint.Absint.predict]
   and [iterate] must reproduce its results bit for bit. *)

open Tdfa_absint

open Tdfa_ir
open Tdfa_dataflow
module Transfer = Tdfa_core.Transfer
module Thermal_state = Tdfa_core.Thermal_state
module Access = Tdfa_core.Access
module Analysis = Tdfa_core.Analysis
module Params = Tdfa_thermal.Params
module Layout = Tdfa_floorplan.Layout

(* Slack added to upper bounds (and used to clamp lower against upper) so
   that float non-associativity between this module's arithmetic and the
   concrete engines' can never flip a certified comparison. Invisible at
   the 0.01 K display precision. *)
let fp_slack = 1e-3

type stats = {
  points : int;
  blocks : int;
  loops : int;
  gs_sweeps : int;
  orbit_steps : int;
}

type t = {
  ambient_k : float;
  margin_k : float;
  lo_cells : float array;
  hi_cells : float array;
  peak_lo_k : float;
  peak_hi_k : float;
  stats : stats;
}

(* The thermal grid of [Transfer.fresh_state], flattened to bare arrays:
   point count, per-point ambient-leakage heat per step [l0], the
   linearised leakage slope [coeff], diffusion/cooling coefficients and
   the neighbour/cell-to-point maps. *)
type grid = {
  n : int;
  num_cells : int;
  ambient : float;
  lambda : float;
  kappa : float;
  coeff : float;
  l0 : float array;
  neighbors : int array array;
  cell_point : int array;
}

let grid_of_config (cfg : Transfer.config) =
  let scratch = Transfer.fresh_state cfg in
  let n = Thermal_state.num_points scratch in
  let p = cfg.Transfer.params in
  let c_point = Transfer.point_capacitance cfg in
  let l0 =
    Array.init n (fun pt ->
        p.Params.leakage_w
        *. float_of_int (Thermal_state.cells_per_point scratch pt)
        *. cfg.Transfer.analysis_dt_s /. c_point)
  in
  let neighbors =
    Array.init n (fun pt ->
        Array.of_list (Thermal_state.point_neighbors scratch pt))
  in
  let num_cells = Layout.num_cells cfg.Transfer.layout in
  let cell_point =
    Array.init num_cells (fun c -> Thermal_state.point_of_cell scratch c)
  in
  {
    n;
    num_cells;
    ambient = p.Params.ambient_k;
    lambda = Transfer.diffusion_coeff cfg;
    kappa = Transfer.cooling_coeff cfg;
    coeff = p.Params.leakage_temp_coeff;
    l0;
    neighbors;
    cell_point;
  }

(* Leakage after adding [h] to [v] — the y-coordinate of the affine step. *)
let leaked grid pt v =
  let excess = Float.max 0.0 (v -. grid.ambient) in
  v +. (grid.l0.(pt) *. (1.0 +. (grid.coeff *. excess)))

(* One concrete transfer step on a bare point vector — the same
   arithmetic as [Transfer.apply] (heat, leak, diffuse from a snapshot,
   cool), minus the state boxing. [x] and [out] may alias; [tmp] must
   alias neither. *)
let apply_step grid heats x ~tmp ~out =
  let n = grid.n in
  Array.blit x 0 tmp 0 n;
  List.iter (fun (pt, h) -> tmp.(pt) <- tmp.(pt) +. h) heats;
  for pt = 0 to n - 1 do
    tmp.(pt) <- leaked grid pt tmp.(pt)
  done;
  for pt = 0 to n - 1 do
    let t = tmp.(pt) in
    let exchange = ref 0.0 in
    Array.iter (fun q -> exchange := !exchange +. (tmp.(q) -. t)) grid.neighbors.(pt);
    let t = t +. (grid.lambda *. !exchange) in
    out.(pt) <- t -. (grid.kappa *. (t -. grid.ambient))
  done

(* Per-block transfer steps with their duty-weighted heat deposits summed
   per point, one step per instruction plus one for the terminator. *)
type step = { heats : (int * float) list; is_instr : bool }
type block_steps = { steps : step list; total_heat : float }

(* Events per instruction are few (operand count), so per-point summing
   on a small assoc list beats a hash table by an order of magnitude —
   and this runs once per instruction on predict's only whole-program
   pass, so it sets the floor of the analysis cost. *)
let heats_of_events grid (cfg : Transfer.config) ~duty events =
  let p = cfg.Transfer.params in
  let c_point = Transfer.point_capacitance cfg in
  let rec add pt dk = function
    | [] -> [ (pt, dk) ]
    | (q, h) :: rest when q = pt -> (q, h +. dk) :: rest
    | pair :: rest -> pair :: add pt dk rest
  in
  List.fold_left
    (fun acc (e : Access.event) ->
      if e.Access.cell >= 0 && e.Access.cell < grid.num_cells then begin
        let energy =
          match e.Access.kind with
          | Access.Read -> p.Params.read_energy_j
          | Access.Write -> p.Params.write_energy_j
        in
        let power = energy *. e.Access.weight *. p.Params.clock_hz *. duty in
        let dk = power *. cfg.Transfer.analysis_dt_s /. c_point in
        add grid.cell_point.(e.Access.cell) dk acc
      end
      else acc)
    [] events

let steps_of_block grid (cfg : Transfer.config) (b : Block.t) =
  let duty =
    Float.min 1.0 (cfg.Transfer.block_frequency b.Block.label /. cfg.Transfer.max_frequency)
  in
  let instr_steps =
    List.mapi
      (fun idx i ->
        let events = cfg.Transfer.accesses_of_instr b.Block.label idx i in
        { heats = heats_of_events grid cfg ~duty events; is_instr = true })
      (Array.to_list b.Block.body)
  in
  let term_step =
    let events = cfg.Transfer.accesses_of_term b.Block.label b.Block.term in
    { heats = heats_of_events grid cfg ~duty events; is_instr = false }
  in
  let steps = instr_steps @ [ term_step ] in
  let total_heat =
    List.fold_left
      (fun acc s -> List.fold_left (fun a (_, h) -> a +. h) acc s.heats)
      0.0 steps
  in
  { steps; total_heat }

let block_steps_table grid cfg func rpo =
  let tbl = Label.Tbl.create 16 in
  List.iter
    (fun l -> Label.Tbl.replace tbl l (steps_of_block grid cfg (Func.find_block func l)))
    rpo;
  tbl

(* H_p: the largest heat any single step deposits at point p. *)
let heat_cap grid bsteps_tbl =
  let h = Array.make grid.n 0.0 in
  Label.Tbl.iter
    (fun _ bs ->
      List.iter
        (fun s -> List.iter (fun (pt, dk) -> if dk > h.(pt) then h.(pt) <- dk) s.heats)
        bs.steps)
    bsteps_tbl;
  h

(* A transfer-stable envelope: u >= ambient with S_H(u) <= u, where S_H is
   the step that applies the full heat cap H every visit. Start from the
   uniform closed-form post-fixpoint and shrink it with descending
   Gauss–Seidel sweeps (coordinate updates of a monotone map preserve
   post-fixpointness). Returns the envelope, the sweep count and the
   per-step max-norm contraction factor nu. *)
let upper_envelope grid h_cap =
  let fmax a = Array.fold_left Float.max 0.0 a in
  let l0max = fmax grid.l0 in
  let l1max = l0max *. grid.coeff in
  let hmax = fmax h_cap in
  let nu = (1.0 -. grid.kappa) *. (1.0 +. l1max) in
  if not (nu < 1.0) then (Array.make grid.n infinity, 0, nu)
  else begin
    let e_star =
      ((nu *. hmax) +. ((1.0 -. grid.kappa) *. l0max)) /. (1.0 -. nu)
    in
    let u = Array.make grid.n (grid.ambient +. e_star) in
    (* Jacobi-style descent with the step image cached per sweep:
       evaluating S_H at the sweep-start state can only yield a larger
       value than at the in-sweep state (u is descending, S_H monotone),
       so min-updating against it still preserves post-fixpointness. *)
    let y = Array.make grid.n 0.0 in
    let sweeps = ref 0 in
    let moved = ref infinity in
    while !moved > 1e-6 && !sweeps < 64 do
      incr sweeps;
      moved := 0.0;
      for pt = 0 to grid.n - 1 do
        y.(pt) <- leaked grid pt (u.(pt) +. h_cap.(pt))
      done;
      for pt = 0 to grid.n - 1 do
        let yp = y.(pt) in
        let exchange = ref 0.0 in
        Array.iter (fun q -> exchange := !exchange +. (y.(q) -. yp)) grid.neighbors.(pt);
        let t = yp +. (grid.lambda *. !exchange) in
        let v = t -. (grid.kappa *. (t -. grid.ambient)) in
        if v < u.(pt) then begin
          moved := Float.max !moved (u.(pt) -. v);
          u.(pt) <- v
        end
      done
    done;
    (u, !sweeps, nu)
  end

(* (latch, header) pairs of every loop — removed from the body graph when
   looking for the heaviest acyclic header-to-latch path. *)
let back_pairs loops_t =
  List.concat_map
    (fun (l : Loops.loop) ->
      List.map (fun src -> (src, l.Loops.header)) l.Loops.back_edges)
    (Loops.loops loops_t)

(* Heaviest header-to-latch path (by total duty-weighted heat) through the
   loop body with back edges removed. Reverse postorder visits every
   non-back edge source before its target on reducible CFGs, so a single
   relaxation pass suffices. *)
let hottest_path func rpo bsteps_tbl back (loop : Loops.loop) =
  let in_body l = Label.Set.mem l loop.Loops.body in
  let is_back src dst =
    List.exists (fun (s, h) -> Label.equal s src && Label.equal h dst) back
  in
  let score = Label.Tbl.create 16 in
  let pred = Label.Tbl.create 16 in
  List.iter
    (fun l ->
      if in_body l then
        let base = (Label.Tbl.find bsteps_tbl l).total_heat in
        if Label.equal l loop.Loops.header then Label.Tbl.replace score l base
        else
          let best =
            List.fold_left
              (fun acc p ->
                if in_body p && not (is_back p l) then
                  match Label.Tbl.find_opt score p with
                  | Some s -> (
                      match acc with
                      | Some (bs, _) when bs >= s -> acc
                      | _ -> Some (s, p))
                  | None -> acc
                else acc)
              None (Func.predecessors func l)
          in
          match best with
          | Some (s, p) ->
              Label.Tbl.replace score l (s +. base);
              Label.Tbl.replace pred l p
          | None -> ())
    rpo;
  let latch =
    List.fold_left
      (fun acc src ->
        match Label.Tbl.find_opt score src with
        | Some s -> (
            match acc with
            | Some (bs, _) when bs >= s -> acc
            | _ -> Some (s, src))
        | None -> acc)
      None loop.Loops.back_edges
  in
  match latch with
  | None -> None
  | Some (_, latch) ->
      let rec build l acc =
        let acc = l :: acc in
        if Label.equal l loop.Loops.header then Some acc
        else
          match Label.Tbl.find_opt pred l with
          | Some p -> build p acc
          | None -> None
      in
      build latch []

(* Iterate the composed path map G from all-ambient. Every finite iterate
   under-approximates the concrete least fixpoint's incoming state at the
   header (the Max join includes the latch exit), and capping at
   [max_apps = max_iterations - 1] applications also under-approximates a
   concrete run that stops at its iteration bound, because one concrete
   reverse-postorder sweep advances the header by at least one G
   application. Returns the after-instruction running max of one final
   recording application — the quantity the concrete peak map tracks. *)
let orbit grid bsteps_tbl ~max_apps ~tol path =
  let steps = List.concat_map (fun l -> (Label.Tbl.find bsteps_tbl l).steps) path in
  let x = Array.make grid.n grid.ambient in
  let nxt = Array.make grid.n 0.0 in
  let tmp = Array.make grid.n 0.0 in
  let apps = ref 0 in
  let total_steps = ref 0 in
  let moved = ref infinity in
  while !apps < max_apps && !moved > tol do
    incr apps;
    Array.blit x 0 nxt 0 grid.n;
    List.iter
      (fun s ->
        incr total_steps;
        apply_step grid s.heats nxt ~tmp ~out:nxt)
      steps;
    moved := 0.0;
    for pt = 0 to grid.n - 1 do
      moved := Float.max !moved (nxt.(pt) -. x.(pt))
    done;
    Array.blit nxt 0 x 0 grid.n
  done;
  let cand = Array.make grid.n grid.ambient in
  List.iter
    (fun s ->
      incr total_steps;
      apply_step grid s.heats x ~tmp ~out:x;
      if s.is_instr then
        for pt = 0 to grid.n - 1 do
          if x.(pt) > cand.(pt) then cand.(pt) <- x.(pt)
        done)
    steps;
  (cand, !total_steps)

let predict ?delta_k ?max_iterations (cfg : Transfer.config) func =
  let settings = Analysis.default_settings in
  let delta_k = Option.value delta_k ~default:settings.Analysis.delta_k in
  let max_iterations =
    Option.value max_iterations ~default:settings.Analysis.max_iterations
  in
  let grid = grid_of_config cfg in
  let rpo = Func.reverse_postorder func in
  let bsteps_tbl = block_steps_table grid cfg func rpo in
  let h_cap = heat_cap grid bsteps_tbl in
  let u, gs_sweeps, nu = upper_envelope grid h_cap in
  (* The concrete analysis stops once no per-instruction state moves more
     than delta_k in a sweep; the sweep operator contracts the max norm by
     nu, so the stopped state sits at most margin below the true limit. *)
  let margin = if nu < 1.0 then nu *. delta_k /. (1.0 -. nu) else 0.0 in
  let loops_t = Loops.analyze func in
  let back = back_pairs loops_t in
  let entry = Func.entry_label func in
  let cand = Array.make grid.n grid.ambient in
  let orbit_steps = ref 0 in
  let loops_used = ref 0 in
  List.iter
    (fun (l : Loops.loop) ->
      (* The entry block's incoming state is pinned to ambient rather than
         joined with its predecessors, which breaks the latch-feeds-header
         argument — loops headed there contribute no lower bound. *)
      if not (Label.equal l.Loops.header entry) then
        match hottest_path func rpo bsteps_tbl back l with
        | Some path when not (List.exists (fun b -> Label.equal b entry) path) ->
            incr loops_used;
            let c, steps =
              orbit grid bsteps_tbl ~max_apps:(max_iterations - 1)
                ~tol:(delta_k /. 4.0) path
            in
            orbit_steps := !orbit_steps + steps;
            for pt = 0 to grid.n - 1 do
              if c.(pt) > cand.(pt) then cand.(pt) <- c.(pt)
            done
        | _ -> ())
    (Loops.loops loops_t);
  let hi_pt = Array.map (fun v -> v +. fp_slack) u in
  let lo_pt =
    Array.init grid.n (fun pt ->
        Float.max grid.ambient (Float.min (cand.(pt) -. margin) hi_pt.(pt)))
  in
  let lo_cells = Array.init grid.num_cells (fun c -> lo_pt.(grid.cell_point.(c))) in
  let hi_cells = Array.init grid.num_cells (fun c -> hi_pt.(grid.cell_point.(c))) in
  let peak arr = Array.fold_left Float.max grid.ambient arr in
  {
    ambient_k = grid.ambient;
    margin_k = margin;
    lo_cells;
    hi_cells;
    peak_lo_k = peak lo_cells;
    peak_hi_k = peak hi_cells;
    stats =
      {
        points = grid.n;
        blocks = List.length rpo;
        loops = !loops_used;
        gs_sweeps;
        orbit_steps = !orbit_steps;
      };
  }

(* {2 The interval engine} *)

type iteration_stats = {
  iter_blocks : int;
  transfers : int;
  sweeps : int;
  widenings : int;
  stable : bool;
}

type iteration = {
  exits : (Label.t * Interval.t array) list;
  istats : iteration_stats;
}

let iterate (cfg : Transfer.config) func =
  let grid = grid_of_config cfg in
  let rpo = Func.reverse_postorder func in
  let bsteps_tbl = block_steps_table grid cfg func rpo in
  let h_cap = heat_cap grid bsteps_tbl in
  let u, _, _ = upper_envelope grid h_cap in
  let cap_hi = Array.map (fun v -> v +. fp_slack) u in
  let entry = Func.entry_label func in
  let loops_t = Loops.analyze func in
  let headers =
    List.filter_map
      (fun (l : Loops.loop) ->
        if Label.equal l.Loops.header entry then None else Some l.Loops.header)
      (Loops.loops loops_t)
  in
  let is_header l = List.exists (Label.equal l) headers in
  let exit_lo = Label.Tbl.create 16 in
  let exit_hi = Label.Tbl.create 16 in
  let prev_in = Label.Tbl.create 4 in
  let widened = Label.Tbl.create 4 in
  let transfers = ref 0 in
  let sweeps = ref 0 in
  let widenings = ref 0 in
  let tmp = Array.make grid.n 0.0 in
  let blocks = List.length rpo in
  let safety = (2 * blocks) + 4 in
  let changed_last = ref true in
  while !changed_last && !sweeps < safety do
    incr sweeps;
    let changed_this = ref false in
    List.iter
      (fun l ->
        let inj =
          if Label.equal l entry then
            (* The concrete engine pins the entry's incoming state to the
               all-ambient fresh state. *)
            Some (Array.make grid.n grid.ambient, Array.make grid.n grid.ambient)
          else
            List.fold_left
              (fun acc p ->
                match (Label.Tbl.find_opt exit_lo p, Label.Tbl.find_opt exit_hi p) with
                | Some plo, Some phi -> (
                    match acc with
                    | None -> Some (Array.copy plo, Array.copy phi)
                    | Some (alo, ahi) ->
                        for i = 0 to grid.n - 1 do
                          if plo.(i) < alo.(i) then alo.(i) <- plo.(i);
                          if phi.(i) > ahi.(i) then ahi.(i) <- phi.(i)
                        done;
                        acc)
                | _ -> acc)
              None (Func.predecessors func l)
        in
        match inj with
        | None -> ()
        | Some (ilo, ihi) ->
            let ilo, ihi =
              if not (is_header l) then (ilo, ihi)
              else if Label.Tbl.mem widened l then
                (Array.make grid.n grid.ambient, Array.copy cap_hi)
              else
                match Label.Tbl.find_opt prev_in l with
                | None ->
                    Label.Tbl.replace prev_in l (Array.copy ilo, Array.copy ihi);
                    (ilo, ihi)
                | Some (plo, phi) ->
                    let grew = ref false in
                    for i = 0 to grid.n - 1 do
                      if ilo.(i) < plo.(i) || ihi.(i) > phi.(i) then grew := true
                    done;
                    if !grew then begin
                      (* Interval.widen's jump-to-cap, made permanent. *)
                      Label.Tbl.replace widened l ();
                      incr widenings;
                      (Array.make grid.n grid.ambient, Array.copy cap_hi)
                    end
                    else (ilo, ihi)
            in
            let olo = Array.copy ilo in
            let ohi = Array.copy ihi in
            List.iter
              (fun s ->
                apply_step grid s.heats olo ~tmp ~out:olo;
                apply_step grid s.heats ohi ~tmp ~out:ohi)
              (Label.Tbl.find bsteps_tbl l).steps;
            let same =
              match (Label.Tbl.find_opt exit_lo l, Label.Tbl.find_opt exit_hi l) with
              | Some plo, Some phi ->
                  let eq = ref true in
                  for i = 0 to grid.n - 1 do
                    if olo.(i) <> plo.(i) || ohi.(i) <> phi.(i) then eq := false
                  done;
                  !eq
              | _ -> false
            in
            if not same then begin
              incr transfers;
              changed_this := true;
              Label.Tbl.replace exit_lo l olo;
              Label.Tbl.replace exit_hi l ohi
            end)
      rpo;
    changed_last := !changed_this
  done;
  let exits =
    List.filter_map
      (fun l ->
        match (Label.Tbl.find_opt exit_lo l, Label.Tbl.find_opt exit_hi l) with
        | Some lo, Some hi ->
            Some
              ( l,
                Array.init grid.n (fun i ->
                    Interval.make ~lo:(Float.min lo.(i) hi.(i)) ~hi:hi.(i)) )
        | _ -> None)
      rpo
  in
  {
    exits;
    istats =
      {
        iter_blocks = blocks;
        transfers = !transfers;
        sweeps = !sweeps;
        widenings = !widenings;
        stable = not !changed_last;
      };
  }
