(* large-funcs: seeded generator functions of 150 to 600 instructions,
   fed as IR text. Each goes through the per-job path of a batch
   (verify, allocate, fixpoint) and then through predict. Register
   colouring dominates both operations at these sizes. *)

open Tdfa_ir
module Gen = Tdfa_workload.Generator
module Engine = Tdfa_engine.Engine

let policy = Tdfa_regalloc.Policy.First_fit
let delta = Tdfa_core.Analysis.default_settings.Tdfa_core.Analysis.delta_k
let tol = 1e-6
let layout = Tdfa_harness.Common.standard_layout

(* Instruction-count rungs, log-spaced over a band, so every seed draws
   a corpus of the same size profile. *)
let rungs ~lo ~hi n =
  List.init n (fun k ->
      lo *. ((hi /. lo) ** (float_of_int k /. float_of_int (n - 1))))

(* Colouring cost at a given size follows the number of variables, so
   each rung takes, among candidates within 4 % of its instruction
   count, the one whose variable count is closest to a fixed share of
   it. The generator shape is fixed; the seed varies with the attempt,
   so the search is deterministic in the benchmark seed. *)
let vars_per_instr = 0.36

let candidate ~seed ~salt ~pool ~target j =
  {
    Gen.default with
    Gen.seed = (seed * 1_000_003) + salt + j;
    pool;
    depth = 2;
    (* Size grows about as 3 * length^2 at this depth. *)
    length =
      max 1 (int_of_float (Float.round (sqrt (target /. 3.0))) - 1 + (j mod 3));
  }

let pick ~seed ~salt ~pool target =
  let score f =
    let n = float_of_int (Func.instr_count f) in
    let vars = float_of_int (Var.Set.cardinal (Func.all_vars f)) in
    (Float.abs (n -. target) /. target, Float.abs ((vars /. n) -. vars_per_instr))
  in
  (* In-band candidates beat the others; among them the better shape
     wins, among the others the closer size. *)
  let better (s1, e1) (s2, e2) =
    match (s1 <= 0.04, s2 <= 0.04) with
    | true, true -> e1 < e2
    | true, false -> true
    | false, true -> false
    | false, false -> s1 < s2
  in
  let rec go j accepted best =
    if j >= 600 || accepted >= 12 then fst (Option.get best)
    else
      let p = candidate ~seed ~salt ~pool ~target j in
      let sc = score (Gen.generate p) in
      let best =
        match best with
        | Some (_, b) when not (better sc b) -> best
        | _ -> Some (p, sc)
      in
      go (j + 1) (if fst sc <= 0.04 then accepted + 1 else accepted) best
  in
  go 0 0 None

(* One function per rung of the band. *)
let corpus ~seed ~salt ~pool ~lo ~hi n =
  List.mapi
    (fun rung t -> pick ~seed ~salt:(salt + (rung * 7919)) ~pool t)
    (rungs ~lo ~hi n)

(* Two functions whose long-lived pool exceeds the 64 register cells,
   so colouring fails and spill code is inserted. *)
let spillers ~seed =
  List.init 2 (fun k ->
      {
        Gen.default with
        Gen.seed = (seed * 1_000_003) + 500_000 + k;
        pool = 70;
        depth = 1;
        length = 4;
      })

let make ~seed =
  let params =
    corpus ~seed ~salt:0 ~pool:14 ~lo:150.0 ~hi:600.0 22 @ spillers ~seed
    |> Array.of_list
  in
  let n = Array.length params in
  let funcs = ref [||] in
  let peaks = Array.make n nan in
  let name i = !funcs.(i).Func.name in
  let job i =
    {
      Seqrun.key = "job/" ^ name i;
      funcs = [ !funcs.(i) ];
      layer = Some "engine.job_ms";
      run =
        (fun obs ->
          let f = !funcs.(i) in
          let r =
            Engine.analyze_job ~obs ~layout Engine.default_spec
              (Engine.job f.Func.name f)
          in
          fun () ->
            peaks.(i) <- r.Engine.peak_k;
            Util.Expect.observe ("job/" ^ f.Func.name)
              (Printf.sprintf "%s %d %d %d %b %d %h %h %s %s" r.Engine.key
                 r.Engine.instrs r.Engine.blocks r.Engine.spilled
                 r.Engine.converged r.Engine.iterations r.Engine.final_delta_k
                 r.Engine.peak_k r.Engine.rung r.Engine.fingerprint));
    }
  in
  let predict i =
    {
      Seqrun.key = "predict/" ^ name i;
      funcs = [ !funcs.(i) ];
      layer = None;
      run =
        (fun obs ->
          let f = !funcs.(i) in
          let out, b =
            Tdfa_serve.Render.predict ~obs ~policy ~granularity:1 ~delta
              ~pre_ra:false f
          in
          fun () ->
            Util.Expect.observe ("predict/" ^ f.Func.name) out
            && peaks.(i) >= b.Tdfa_absint.Absint.peak_lo_k -. tol
            && peaks.(i) <= b.Tdfa_absint.Absint.peak_hi_k +. tol);
    }
  in
  (* The first rung, the smallest function without spills, warms up
     both public calls. *)
  let setup () =
    funcs :=
      Array.map
        (fun p -> Layers.parse_func (Printer.func_to_string (Gen.generate p)))
        params;
    ignore (Seqrun.exec_plain (job 0));
    ignore (Seqrun.exec_plain (predict 0))
  in
  let order =
    let rng = Random.State.make [| seed; 0x1f |] in
    List.init n (fun i -> (Random.State.bits rng, i))
    |> List.sort compare |> List.map snd
  in
  let pass () =
    List.concat_map
      (fun i -> [ (fun () -> job i); (fun () -> predict i) ])
      order
  in
  (setup, pass)
