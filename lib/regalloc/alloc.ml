open Tdfa_ir
open Tdfa_dataflow
open Tdfa_obs

type result = {
  func : Func.t;
  assignment : Assignment.t;
  spilled : Var.Set.t;
  rounds : int;
  max_pressure : int;
}

let default_weights func =
  let ud = Use_def.build func in
  let loops = Loops.analyze func in
  fun v -> Use_def.weighted_access_count ud loops v

(* Cap on colour/spill rounds; only a degenerately small register file
   reaches it. *)
let max_rounds = 16

let allocate ?(obs = Obs.null) func layout ~policy =
  let round_args round = [ ("round", Obs.Int round) ] in
  let rec attempt func all_spilled round =
    if round > max_rounds then
      failwith
        (Printf.sprintf "Alloc.allocate: no colouring after %d spill rounds"
           max_rounds);
    let weights = default_weights func in
    let liveness =
      Obs.span obs "regalloc.liveness" ~args:(round_args round) (fun () ->
          Liveness.analyze func)
    in
    let graph =
      Obs.span obs "regalloc.interference" ~args:(round_args round)
        (fun () -> Interference.build func liveness)
    in
    let coloring_args =
      if Obs.tracing obs then
        round_args round
        @ [
            ("vars", Obs.Int (List.length (Interference.vars graph)));
            ("edges", Obs.Int (Interference.num_edges graph));
          ]
      else []
    in
    let outcome =
      Obs.span obs "regalloc.coloring" ~args:coloring_args (fun () ->
          Coloring.run graph layout ~policy ~weights)
    in
    if outcome.Coloring.optimistic_picks > 0 then
      Obs.incr obs ~by:outcome.Coloring.optimistic_picks
        "regalloc.optimistic_picks";
    if Var.Set.is_empty outcome.Coloring.spilled then begin
      Obs.observe obs "regalloc.rounds" (float_of_int round);
      {
        func;
        assignment = outcome.Coloring.assignment;
        spilled = all_spilled;
        rounds = round;
        max_pressure = Liveness.max_pressure liveness;
      }
    end
    else begin
      Obs.incr obs
        ~by:(Var.Set.cardinal outcome.Coloring.spilled)
        "regalloc.spilled_vars";
      let func =
        Obs.span obs "regalloc.spill" ~args:(round_args round) (fun () ->
            Spill.rewrite
              ~slot_base:(Var.Set.cardinal all_spilled)
              func outcome.Coloring.spilled)
      in
      attempt func
        (Var.Set.union all_spilled outcome.Coloring.spilled)
        (round + 1)
    end
  in
  attempt func Var.Set.empty 1

let cell_of_var result v = Assignment.cell_of_var result.assignment v
