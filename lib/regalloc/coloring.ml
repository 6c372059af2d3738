open Tdfa_ir
open Tdfa_floorplan

type outcome = {
  assignment : Assignment.t;
  spilled : Var.Set.t;
  optimistic_picks : int;
}

(* Low-degree candidates ordered by (weight, index). Weights are sums of
   integer-valued loop frequencies, so two of them are equal or at least
   1 apart, and this exact order is the one the 1e-12-tolerant
   comparison of the textbook formulation produces. *)
module Low = Set.Make (struct
  type t = float * int

  let compare (wa, a) (wb, b) =
    match Float.compare wa wb with 0 -> Int.compare a b | c -> c
end)

let run graph layout ~policy ~weights =
  let k = Layout.num_cells layout in
  (* Nodes are indexed in [Var.compare] order, so index order is the
     tie-break order. *)
  let vars = Array.of_list (Interference.vars graph) in
  let n = Array.length vars in
  let index = Var.Tbl.create (max 16 n) in
  Array.iteri (fun i v -> Var.Tbl.replace index v i) vars;
  let adj =
    Array.map
      (fun v ->
        Var.Set.fold
          (fun u acc -> Var.Tbl.find index u :: acc)
          (Interference.neighbors graph v) []
        |> Array.of_list)
      vars
  in
  let weight = Array.map weights vars in
  (* Degrees over the not-yet-removed node set. *)
  let degree = Array.map Array.length adj in
  let removed = Array.make n false in
  let low = ref Low.empty in
  Array.iteri (fun i d -> if d < k then low := Low.add (weight.(i), i) !low) degree;
  let remove i =
    removed.(i) <- true;
    Array.iter
      (fun j ->
        if not removed.(j) then begin
          degree.(j) <- degree.(j) - 1;
          if degree.(j) = k - 1 then low := Low.add (weight.(j), j) !low
        end)
      adj.(i)
  in
  (* Stuck: the worst spill candidate (lowest weight/degree), with the
     tolerant comparison folded over the remaining nodes in index
     order. *)
  let optimistic_pick () =
    let best = ref (-1) and best_score = ref 0.0 in
    for i = 0 to n - 1 do
      if not removed.(i) then begin
        let s = weight.(i) /. float_of_int (max 1 degree.(i)) in
        if !best < 0 || s < !best_score -. 1e-12 then begin
          best := i;
          best_score := s
        end
      end
    done;
    !best
  in
  (* Simplify: push low-degree nodes, preferring to remove *cold* ones
     first so hot ones are selected (coloured) first. When stuck, remove
     the worst spill candidate optimistically. *)
  let stack = ref [] in
  let optimistic = ref 0 in
  for _ = 1 to n do
    let i =
      match Low.min_elt_opt !low with
      | Some ((_, i) as key) ->
        low := Low.remove key !low;
        i
      | None ->
        incr optimistic;
        optimistic_pick ()
    in
    remove i;
    stack := i :: !stack
  done;
  (* Select: pop hot-first; colours of coloured neighbours are forbidden. *)
  let chooser = Policy.make_chooser policy layout in
  let cell = Array.make n (-1) in
  let assignment = ref Assignment.empty in
  let spilled = ref Var.Set.empty in
  List.iter
    (fun i ->
      let forbidden =
        Array.fold_left
          (fun acc j -> if cell.(j) >= 0 then Policy.Int_set.add cell.(j) acc else acc)
          Policy.Int_set.empty adj.(i)
      in
      match Policy.choose chooser ~forbidden ~weight:weight.(i) with
      | Some c ->
        cell.(i) <- c;
        assignment := Assignment.add !assignment vars.(i) c
      | None -> spilled := Var.Set.add vars.(i) !spilled)
    !stack;
  {
    assignment = !assignment;
    spilled = !spilled;
    optimistic_picks = !optimistic;
  }
