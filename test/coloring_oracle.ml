(* Differential oracle for the register allocator: the textbook
   Chaitin-Briggs colourer, which rebuilds the remaining node list and
   recounts every degree on each simplify pick (O(V^2) set work per
   function). The production colourer must reproduce its assignments
   and spill sets exactly. *)

open Tdfa_ir
open Tdfa_floorplan
open Tdfa_regalloc

type outcome = { assignment : Assignment.t; spilled : Var.Set.t }

let run graph layout ~policy ~weights =
  let k = Layout.num_cells layout in
  let all_vars = Interference.vars graph in
  (* Working copy of the degrees over the not-yet-removed node set. *)
  let removed = Var.Tbl.create 64 in
  let still_in v = not (Var.Tbl.mem removed v) in
  let current_degree v =
    Var.Set.cardinal (Var.Set.filter still_in (Interference.neighbors graph v))
  in
  let remaining () = List.filter still_in all_vars in
  (* Simplify: push low-degree nodes, preferring to remove *cold* ones
     first so hot ones are selected (coloured) first. When stuck, remove
     the worst spill candidate (lowest weight/degree) optimistically. *)
  let stack = ref [] in
  let rec simplify () =
    match remaining () with
    | [] -> ()
    | vars ->
      let low = List.filter (fun v -> current_degree v < k) vars in
      let pick_min score vs =
        List.fold_left
          (fun best v ->
            match best with
            | None -> Some v
            | Some b ->
              let sv = score v and sb = score b in
              if sv < sb -. 1e-12 then Some v
              else if sb < sv -. 1e-12 then best
              else if Var.compare v b < 0 then Some v
              else best)
          None vs
      in
      let chosen =
        match low with
        | _ :: _ -> pick_min (fun v -> weights v) low
        | [] ->
          pick_min
            (fun v -> weights v /. float_of_int (max 1 (current_degree v)))
            vars
      in
      (match chosen with
       | Some v ->
         Var.Tbl.replace removed v ();
         stack := v :: !stack;
         simplify ()
       | None -> ())
  in
  simplify ();
  (* Select: pop hot-first; colours of coloured neighbours are forbidden. *)
  let chooser = Policy.make_chooser policy layout in
  let assignment = ref Assignment.empty in
  let spilled = ref Var.Set.empty in
  List.iter
    (fun v ->
      let forbidden =
        Var.Set.fold
          (fun n acc ->
            match Assignment.cell_of_var !assignment n with
            | Some c -> Policy.Int_set.add c acc
            | None -> acc)
          (Interference.neighbors graph v)
          Policy.Int_set.empty
      in
      match Policy.choose chooser ~forbidden ~weight:(weights v) with
      | Some cell -> assignment := Assignment.add !assignment v cell
      | None -> spilled := Var.Set.add v !spilled)
    !stack;
  { assignment = !assignment; spilled = !spilled }

