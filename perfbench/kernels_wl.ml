(* kernels: the paper's 16 kernels, fed as IR text. A pass renders
   analyze, predict and lint for every kernel, then one annealed
   placement of all 16 on a 4x4 chip. *)

open Tdfa_ir
module Render = Tdfa_serve.Render

let policy = Tdfa_regalloc.Policy.First_fit
let delta = Tdfa_core.Analysis.default_settings.Tdfa_core.Analysis.delta_k
let geometry = (4, 4)
let tol = 1e-6

let make ~seed =
  (* The inputs: every kernel printed to IR text, in a seeded order. *)
  let rng = Random.State.make [| seed; 0x6b |] in
  let texts =
    Tdfa_workload.Kernels.all
    |> List.map (fun (n, f) -> (Random.State.bits rng, n, Printer.func_to_string f))
    |> List.sort compare
    |> List.map (fun (_, n, t) -> (n, t))
    |> Array.of_list
  in
  let n = Array.length texts in
  let funcs = ref [||] in
  (* The last analyze peak map of each kernel, checked against the
     certified bounds of its predict. *)
  let peaks = Array.make n [||] in
  let place_policy = Tdfa_alloc.Place.Annealed { seed; iters = 2000 } in
  let analyze i =
    let name = fst texts.(i) in
    {
      Seqrun.key = "analyze/" ^ name;
      funcs = [ !funcs.(i) ];
      layer = None;
      run =
        (fun obs ->
          let out, r =
            Render.analyze ~obs ~policy ~granularity:1 ~delta ~pre_ra:false
              ~recover:false ~incremental:false !funcs.(i)
          in
          fun () ->
            let info = Tdfa_core.Analysis.info r.Tdfa.Driver.outcome in
            peaks.(i) <-
              Tdfa_core.Thermal_state.to_cell_array
                (Tdfa_core.Analysis.peak_map info);
            Util.Expect.observe ("analyze/" ^ name) out);
    }
  in
  let predict i =
    let name = fst texts.(i) in
    {
      Seqrun.key = "predict/" ^ name;
      funcs = [ !funcs.(i) ];
      layer = None;
      run =
        (fun obs ->
          let out, b =
            Render.predict ~obs ~policy ~granularity:1 ~delta ~pre_ra:false
              !funcs.(i)
          in
          fun () ->
            let lo = b.Tdfa_absint.Absint.lo_cells
            and hi = b.Tdfa_absint.Absint.hi_cells in
            let contained = ref (Array.length peaks.(i) = Array.length hi) in
            Array.iteri
              (fun c t ->
                if t < lo.(c) -. tol || t > hi.(c) +. tol then
                  contained := false)
              peaks.(i);
            Util.Expect.observe ("predict/" ^ name) out && !contained);
    }
  in
  let lint i =
    let name = fst texts.(i) in
    {
      Seqrun.key = "lint/" ^ name;
      funcs = [ !funcs.(i) ];
      layer = None;
      run =
        (fun obs ->
          let out, _ = Render.lint ~obs ~post_ra:false ~policy !funcs.(i) in
          fun () -> Util.Expect.observe ("lint/" ^ name) out);
    }
  in
  let place () =
    let funcs = Array.to_list !funcs in
    {
      Seqrun.key = "place";
      funcs;
      layer = None;
      run =
        (fun obs ->
          let out, placed, blind =
            Render.place ~obs ~policy ~granularity:1 ~delta ~geometry
              ~place_policy funcs
          in
          fun () ->
            let p = placed.Tdfa.Driver.placement in
            if !Layers.enabled then
              Layers.add "alloc.evaluate_ms"
                (Layers.evaluate_ms ~rows:(fst geometry) ~cols:(snd geometry)
                   placed);
            Util.Expect.observe "place" out
            && p.Tdfa_alloc.Place.peak_k
               <= blind.Tdfa_alloc.Place.peak_k +. 1e-9);
    }
  in
  let warm op = ignore (Seqrun.exec_plain op) in
  let setup () =
    funcs := Array.map (fun (_, t) -> Layers.parse_func t) texts;
    warm (analyze 0);
    warm (predict 0);
    warm (lint 0);
    warm (place ())
  in
  let pass () =
    List.concat
      (List.init n (fun i ->
           [ (fun () -> analyze i); (fun () -> predict i); (fun () -> lint i) ]))
    @ [ place ]
  in
  (setup, pass)
