open Tdfa_ir
open Tdfa_dataflow
open Tdfa_regalloc

type diagnostic = {
  rule : string;
  label : Label.t option;
  index : int option;
  violation : string;
}

let diag ?label ?index rule fmt =
  Printf.ksprintf (fun violation -> { rule; label; index; violation }) fmt

let to_string d =
  let where =
    match (d.label, d.index) with
    | Some l, Some i -> Printf.sprintf " block %s, instr %d:" (Label.to_string l) i
    | Some l, None -> Printf.sprintf " block %s:" (Label.to_string l)
    | None, _ -> ""
  in
  Printf.sprintf "[%s]%s %s" d.rule where d.violation

let pp ppf d = Format.pp_print_string ppf (to_string d)

(* ------------------------------------------------------------------ *)
(* CFG integrity                                                        *)
(* ------------------------------------------------------------------ *)

let cfg (f : Func.t) =
  let errs = ref [] in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun l ->
          if not (Func.mem_block f l) then
            errs :=
              diag ~label:b.Block.label "cfg"
                "branch target %s does not exist" (Label.to_string l)
              :: !errs)
        (Block.successors b.Block.term))
    f.Func.blocks;
  let reach = Func.reachable f in
  List.iter
    (fun (b : Block.t) ->
      if not (Label.Set.mem b.Block.label reach) then
        errs :=
          diag ~label:b.Block.label "cfg" "block is unreachable from entry"
          :: !errs)
    f.Func.blocks;
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* Definite assignment (defs dominate uses on every path)               *)
(* ------------------------------------------------------------------ *)

let defs_dominate_uses (f : Func.t) =
  let errs = ref [] in
  let order = Func.reverse_postorder f in
  let reach = Func.reachable f in
  let entry = Func.entry_label f in
  let params = Var.Set.of_list f.Func.params in
  let top = Func.all_vars f in
  let block_defs = Label.Tbl.create 16 in
  List.iter
    (fun (b : Block.t) ->
      let ds =
        Array.fold_left
          (fun acc i ->
            match Instr.def i with Some d -> Var.Set.add d acc | None -> acc)
          Var.Set.empty b.Block.body
      in
      Label.Tbl.replace block_defs b.Block.label ds)
    f.Func.blocks;
  (* Forward all-paths fixpoint: a variable is definitely assigned at a
     block entry iff it is assigned along every path from the function
     entry. Intersection join, initialised to top. *)
  let predecessors = Func.predecessor_index f in
  let in_sets = Label.Tbl.create 16 in
  let out_sets = Label.Tbl.create 16 in
  List.iter (fun l -> Label.Tbl.replace out_sets l top) order;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun l ->
        let input =
          if Label.equal l entry then params
          else
            let preds =
              List.filter (fun p -> Label.Set.mem p reach) (predecessors l)
            in
            match preds with
            | [] -> params
            | p :: rest ->
              List.fold_left
                (fun acc q -> Var.Set.inter acc (Label.Tbl.find out_sets q))
                (Label.Tbl.find out_sets p) rest
        in
        Label.Tbl.replace in_sets l input;
        let out = Var.Set.union input (Label.Tbl.find block_defs l) in
        if not (Var.Set.equal out (Label.Tbl.find out_sets l)) then begin
          Label.Tbl.replace out_sets l out;
          changed := true
        end)
      order
  done;
  let ever_defined = Func.defined_vars f in
  let rd = lazy (Reaching_defs.analyze f) in
  let explain l v =
    if not (Var.Set.mem v ever_defined) then "is never defined"
    else
      let sites =
        Reaching_defs.Def_set.elements
          (Reaching_defs.defs_of_var_at (Lazy.force rd) l v)
      in
      match sites with
      | [] -> "is not defined before this point on any path"
      | d :: _ ->
        Printf.sprintf
          "is not defined on every path to this point (one reaching def at \
           %s.%d)"
          (Label.to_string d.Reaching_defs.Def.label) d.Reaching_defs.Def.index
  in
  List.iter
    (fun l ->
      let b = Func.find_block f l in
      let assigned = ref (Label.Tbl.find in_sets l) in
      Array.iteri
        (fun index i ->
          List.iter
            (fun v ->
              if not (Var.Set.mem v !assigned) then
                errs :=
                  diag ~label:l ~index "use-undef" "read of %s which %s"
                    (Var.to_string v) (explain l v)
                  :: !errs)
            (Instr.uses i);
          match Instr.def i with
          | Some d -> assigned := Var.Set.add d !assigned
          | None -> ())
        b.Block.body;
      List.iter
        (fun v ->
          if not (Var.Set.mem v !assigned) then
            errs :=
              diag ~label:l "use-undef" "terminator reads %s which %s"
                (Var.to_string v) (explain l v)
              :: !errs)
        (Block.term_uses b.Block.term))
    order;
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* Spill-slot balance                                                   *)
(* ------------------------------------------------------------------ *)

let spill_slots (f : Func.t) =
  (* A spill base is a variable whose unique definition is
     [const Spill.base_address]. *)
  let def_count = Var.Tbl.create 16 in
  let const_val = Var.Tbl.create 16 in
  Func.iter_instrs
    (fun _ _ i ->
      match Instr.def i with
      | Some d ->
        Var.Tbl.replace def_count d
          (1 + Option.value ~default:0 (Var.Tbl.find_opt def_count d));
        (match i with
         | Instr.Const (_, k) -> Var.Tbl.replace const_val d k
         | _ -> ())
      | None -> ())
    f;
  let is_base v =
    Var.Tbl.find_opt def_count v = Some 1
    && Var.Tbl.find_opt const_val v = Some Spill.base_address
  in
  let read = Hashtbl.create 8 and written = Hashtbl.create 8 in
  Func.iter_instrs
    (fun l index i ->
      match i with
      | Instr.Load (_, base, off) when is_base base ->
        if not (Hashtbl.mem read off) then Hashtbl.replace read off (l, index)
      | Instr.Store (_, base, off) when is_base base ->
        Hashtbl.replace written off ()
      | _ -> ())
    f;
  Hashtbl.fold
    (fun off (l, index) acc ->
      if Hashtbl.mem written off then acc
      else
        diag ~label:l ~index "spill-slot"
          "spill slot %d is read but never written" off
        :: acc)
    read []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Post-allocation register consistency                                 *)
(* ------------------------------------------------------------------ *)

let allocation ~layout (f : Func.t) assignment =
  let errs = ref [] in
  List.iter
    (fun (v, c) ->
      if not (Tdfa_floorplan.Layout.in_range layout c) then
        errs :=
          diag "reg-alloc" "%s is assigned cell %d outside the %dx%d layout"
            (Var.to_string v) c layout.Tdfa_floorplan.Layout.rows
            layout.Tdfa_floorplan.Layout.cols
          :: !errs)
    (Assignment.bindings assignment);
  let live = Liveness.analyze f in
  let reported = Hashtbl.create 8 in
  let cell v = Assignment.cell_of_var assignment v in
  let report ?index label v w c fmt_tail =
    let key = if Var.compare v w < 0 then (v, w) else (w, v) in
    if not (Hashtbl.mem reported key) then begin
      Hashtbl.replace reported key ();
      errs :=
        diag ~label ?index "reg-alloc" "%s and %s %s but share cell %d"
          (Var.to_string v) (Var.to_string w) fmt_tail c
        :: !errs
    end
  in
  (* Definition points: a def lands in its cell even when the defined
     variable is dead afterwards, so it clobbers any other variable live
     after the instruction that shares the cell. A move whose source
     shares the cell rewrites the same value (a coalesced pair) and is
     exempt. *)
  List.iter
    (fun (b : Block.t) ->
      let l = b.Block.label in
      Array.iteri
        (fun index i ->
          match Instr.def i with
          | None -> ()
          | Some d -> (
            match cell d with
            | None -> ()
            | Some c ->
              let exempt =
                match i with Instr.Unop (Instr.Mov, _, s) -> Some s | _ -> None
              in
              Var.Set.iter
                (fun w ->
                  let skip =
                    Var.equal w d
                    ||
                    match exempt with
                    | Some s -> Var.equal w s
                    | None -> false
                  in
                  if (not skip) && cell w = Some c then
                    report ~index l d w c "collide at a definition point")
                (Liveness.live_after_instr live l index)))
        b.Block.body)
    f.Func.blocks;
  (* Parameters are defined on entry: they may not share a cell with each
     other or with anything live into the entry block. *)
  let entry = Func.entry_label f in
  let entry_live = Liveness.live_in live entry in
  List.iteri
    (fun i p ->
      match cell p with
      | None -> ()
      | Some c ->
        List.iteri
          (fun j q ->
            if i < j && cell q = Some c then
              report entry p q c "are both parameters")
          f.Func.params;
        Var.Set.iter
          (fun w ->
            if (not (Var.equal w p)) && cell w = Some c then
              report entry p w c "collide at function entry")
          entry_live)
    f.Func.params;
  let check_set ?index label s =
    let by_cell = Hashtbl.create 8 in
    Var.Set.iter
      (fun v ->
        match Assignment.cell_of_var assignment v with
        | Some c -> (
          match Hashtbl.find_opt by_cell c with
          | Some w ->
            let key =
              if Var.compare v w < 0 then (v, w) else (w, v)
            in
            if not (Hashtbl.mem reported key) then begin
              Hashtbl.replace reported key ();
              errs :=
                diag ~label ?index "reg-alloc"
                  "%s and %s are live together but share cell %d"
                  (Var.to_string v) (Var.to_string w) c
                :: !errs
            end
          | None -> Hashtbl.replace by_cell c v)
        | None -> ())
      s
  in
  List.iter
    (fun (b : Block.t) ->
      let l = b.Block.label in
      check_set l (Liveness.live_in live l);
      Array.iteri
        (fun i _ -> check_set ~index:i l (Liveness.live_after_instr live l i))
        b.Block.body)
    f.Func.blocks;
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* VLIW bundle legality                                                 *)
(* ------------------------------------------------------------------ *)

let bundles ~width (f : Func.t) sched =
  let errs = ref [] in
  List.iter
    (fun (l, _) ->
      if not (Func.mem_block f l) then
        errs :=
          diag ~label:l "vliw" "schedule names a block that does not exist"
          :: !errs)
    sched;
  List.iter
    (fun (b : Block.t) ->
      let l = b.Block.label in
      match List.assoc_opt l sched with
      | None ->
        if Block.num_instrs b > 0 then
          errs := diag ~label:l "vliw" "block has no schedule" :: !errs
      | Some bs ->
        let body = b.Block.body in
        let n = Array.length body in
        let matched = Array.make n false in
        (* bundle index of each matched original instruction *)
        let bundle_of = Array.make n (-1) in
        List.iteri
          (fun k bundle ->
            if List.length bundle > width then
              errs :=
                diag ~label:l "vliw" "bundle %d has %d slots but width is %d"
                  k (List.length bundle) width
                :: !errs;
            List.iter
              (fun i ->
                (* Earliest unmatched structurally-equal original site. *)
                let rec find j =
                  if j >= n then None
                  else if (not matched.(j)) && Instr.equal body.(j) i then
                    Some j
                  else find (j + 1)
                in
                match find 0 with
                | Some j ->
                  matched.(j) <- true;
                  bundle_of.(j) <- k
                | None ->
                  errs :=
                    diag ~label:l "vliw"
                      "bundle %d contains %s which is not in the block" k
                      (Instr.to_string i)
                    :: !errs)
              bundle)
          bs;
        Array.iteri
          (fun j ok ->
            if not ok then
              errs :=
                diag ~label:l ~index:j "vliw" "%s is missing from the schedule"
                  (Instr.to_string body.(j))
                :: !errs)
          matched;
        let preds = Deps.block_preds body in
        Array.iteri
          (fun j ok ->
            if ok then
              List.iter
                (fun i ->
                  if matched.(i) && bundle_of.(i) >= bundle_of.(j) then
                    errs :=
                      diag ~label:l ~index:j "vliw"
                        "dependence %d -> %d not respected (bundles %d and %d)"
                        i j bundle_of.(i) bundle_of.(j)
                      :: !errs)
                preds.(j))
          matched)
    f.Func.blocks;
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* Thermal state sanity                                                 *)
(* ------------------------------------------------------------------ *)

let thermal_state s =
  let module T = Tdfa_core.Thermal_state in
  let errs = ref [] in
  for p = 0 to T.num_points s - 1 do
    let t = T.get s p in
    if Float.is_nan t then
      errs := diag ~index:p "thermal" "point %d is NaN" p :: !errs
    else if not (Float.is_finite t) then
      errs := diag ~index:p "thermal" "point %d is infinite" p :: !errs
    else if t <= 0.0 then
      errs :=
        diag ~index:p "thermal" "point %d is %.2f K (non-physical)" p t
        :: !errs
  done;
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* Entry points                                                         *)
(* ------------------------------------------------------------------ *)

let func f = cfg f @ defs_dominate_uses f @ spill_slots f

let all ?layout ?assignment f =
  let base = func f in
  match (layout, assignment) with
  | Some layout, Some assignment -> base @ allocation ~layout f assignment
  | _ -> base
