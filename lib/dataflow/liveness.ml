open Tdfa_ir

module Domain = struct
  type fact = Var.Set.t

  let equal = Var.Set.equal
  let join = Var.Set.union
  let bottom = Var.Set.empty
  let exit (_ : Func.t) = Var.Set.empty

  let instr i fact =
    let without_def =
      match Instr.def i with Some d -> Var.Set.remove d fact | None -> fact
    in
    List.fold_left (fun acc v -> Var.Set.add v acc) without_def (Instr.uses i)

  let terminator term fact =
    List.fold_left (fun acc v -> Var.Set.add v acc) fact (Block.term_uses term)
end

module S = Solver.Backward (Domain)

(* [points] holds, per block of [n] instructions, the [n + 1] live sets
   between them: entry [i] is the set before instruction [i], entry [n]
   the set before the terminator. One backward pass per block computes
   them in [analyze]; they are never mutated afterwards, so a [t] can be
   shared across domains. *)
type t = {
  solution : S.t;
  func : Func.t;
  points : Var.Set.t array Label.Tbl.t;
}

let block_points solution (b : Block.t) =
  let body = b.Block.body in
  let n = Array.length body in
  let points = Array.make (n + 1) Var.Set.empty in
  points.(n) <-
    Domain.terminator b.Block.term (S.output solution b.Block.label);
  for i = n - 1 downto 0 do
    points.(i) <- Domain.instr body.(i) points.(i + 1)
  done;
  points

let analyze func =
  let solution = S.solve func in
  let points = Label.Tbl.create 16 in
  List.iter
    (fun (b : Block.t) ->
      Label.Tbl.replace points b.Block.label (block_points solution b))
    func.Func.blocks;
  { solution; func; points }

let live_in t l = S.input t.solution l
let live_out t l = S.output t.solution l

(* Live point [i + offset] of the block, for a body index [i]. *)
let point t l i offset =
  let points = Label.Tbl.find t.points l in
  if i < 0 || i >= Array.length points - 1 then
    invalid_arg "Liveness: instruction index out of range";
  points.(i + offset)

let live_before_instr t l i = point t l i 0
let live_after_instr t l i = point t l i 1

let max_pressure t =
  let best = ref 0 in
  let consider s = best := max !best (Var.Set.cardinal s) in
  List.iter
    (fun (b : Block.t) ->
      let l = b.Block.label in
      consider (live_in t l);
      consider (live_out t l);
      Array.iteri (fun i _ -> consider (live_after_instr t l i)) b.Block.body)
    t.func.Func.blocks;
  !best

let iterations t = S.iterations t.solution
