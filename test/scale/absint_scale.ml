(* Certified bounds on the 11,060-instruction generator function: runs
   the fixpoint and [Absint.predict] on its first-fit allocation over the
   standard 8x8 register file and checks that the fixpoint peak lies
   inside the certified [lo, hi] bounds. Exits 1 if it does not. Usage:
   dune exec test/scale/absint_scale.exe *)

open Tdfa_ir
open Tdfa_regalloc
open Tdfa_core
module Generator = Tdfa_workload.Generator

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let () =
  let func =
    Generator.generate
      { Generator.default with pool = 16; length = 16; depth = 3; seed = 7 }
  in
  let layout = Tdfa_harness.Common.standard_layout in
  let r = Alloc.allocate func layout ~policy:Policy.First_fit in
  let f = r.Alloc.func in
  let tc = Setup.config_of_assignment ~layout f r.Alloc.assignment in
  let info, fix_s = timed (fun () -> Analysis.info (Analysis.fixpoint tc f)) in
  let b, predict_s = timed (fun () -> Tdfa_absint.Absint.predict tc f) in
  let peak = Thermal_state.peak (Analysis.peak_map info) in
  let st = b.Tdfa_absint.Absint.stats in
  Printf.printf
    "%d instructions, %d loops, %d orbit steps: fixpoint %.2f s, predict %.2f s\n"
    (Func.instr_count f) st.Tdfa_absint.Absint.loops
    st.Tdfa_absint.Absint.orbit_steps fix_s predict_s;
  let lo = b.Tdfa_absint.Absint.peak_lo_k and hi = b.Tdfa_absint.Absint.peak_hi_k in
  if lo <= peak && peak <= hi then
    Printf.printf "fixpoint peak %.2f K within [%.2f, %.2f] K\n" peak lo hi
  else begin
    Printf.eprintf "fixpoint peak %.2f K outside [%.2f, %.2f] K\n" peak lo hi;
    exit 1
  end
