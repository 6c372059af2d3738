(* Allocates the 11,060-instruction generator function on the standard
   8x8 register file and checks the result with the verifier's
   register-allocation rules. Exits 1 on any diagnostic. Usage:
   dune exec test/scale/regalloc_scale.exe *)

open Tdfa_ir
open Tdfa_regalloc
module Generator = Tdfa_workload.Generator

let () =
  let func =
    Generator.generate
      { Generator.default with pool = 16; length = 16; depth = 3; seed = 7 }
  in
  let layout = Tdfa_harness.Common.standard_layout in
  let t0 = Unix.gettimeofday () in
  let r = Alloc.allocate func layout ~policy:Policy.First_fit in
  let elapsed = Unix.gettimeofday () -. t0 in
  Printf.printf "%d instructions, %d rounds, %d spilled: allocated in %.2f s\n"
    (Func.instr_count func) r.Alloc.rounds
    (Var.Set.cardinal r.Alloc.spilled)
    elapsed;
  match
    Tdfa_verify.Check.all ~layout ~assignment:r.Alloc.assignment r.Alloc.func
  with
  | [] -> print_endline "verification clean"
  | diags ->
    List.iter (fun d -> prerr_endline (Tdfa_verify.Check.to_string d)) diags;
    exit 1
