(* The traced run's per-layer split.

   Every traced operation runs with its own [Obs.memory] sink; the
   spans, instants and counters production already emits are folded
   into per-layer totals here. Layers that emit no span of their own are
   timed from outside by calling their public functions on the same
   input ("probes", run once per distinct function and kept out of the
   operation's timed interval). Everything stays in memory until the run
   ends, when the per-layer table and a Chrome trace of the kept spans
   are written. *)

open Tdfa_ir
open Tdfa_obs

let enabled = ref false
let totals : (string, float) Hashtbl.t = Hashtbl.create 64

let add name v =
  Hashtbl.replace totals name
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt totals name))

let get name = Option.value ~default:0.0 (Hashtbl.find_opt totals name)

(* Operations folded in, and their traced wall time. *)
let ops = ref 0
let op_ms = ref 0.0

(* Tracing overhead: the same operation run traced and untraced. *)
let paired_traced_ms = ref 0.0
let paired_untraced_ms = ref 0.0

(* Ratios are kept as numerator/denominator pairs. *)
let fixpoints = ref 0
let converged = ref 0
let incrementals = ref 0
let warm_reuses = ref 0
let dirty_blocks = ref 0
let total_blocks = ref 0

(* ------------------------------------------------------------------ *)
(* Kept spans for the Chrome trace                                      *)
(* ------------------------------------------------------------------ *)

type kept = { k_name : string; k_ts_us : float; k_dur_us : float; k_tid : int }

let run_t0 = ref 0.0
let kept : kept list ref = ref []
let kept_n = ref 0
let max_kept = 200_000

let keep ~name ~ts_us ~dur_us ~tid =
  if !kept_n < max_kept then begin
    incr kept_n;
    kept := { k_name = name; k_ts_us = ts_us; k_dur_us = dur_us; k_tid = tid }
            :: !kept
  end

(* A span timed by the benchmark itself around a public call. *)
let outside ?(tid = 0) name ~t0 ~ms =
  if !enabled then
    keep ~name ~ts_us:((t0 -. !run_t0) *. 1e6) ~dur_us:(ms *. 1000.0) ~tid

(* ------------------------------------------------------------------ *)
(* Probes                                                               *)
(* ------------------------------------------------------------------ *)

type probe = {
  liveness_iterations : float;
  interference_edges : float;
  alloc_mb : float;
  config_ms : float;
  core_alloc_mb : float;
  gs_sweeps : float;
  orbit_steps : float;
  lint_ctx_ms : float;
  blocks : float;
}

let layout = Tdfa_harness.Common.standard_layout

let median3 f =
  Util.median_of (List.init 3 (fun _ -> snd (Util.timed f)))

let allocated_mb f =
  let b0 = Gc.allocated_bytes () in
  let r = f () in
  (r, (Gc.allocated_bytes () -. b0) /. 1048576.0)

let probe_func f =
  let lv = Tdfa_dataflow.Liveness.analyze f in
  let graph = Tdfa_regalloc.Interference.build f lv in
  let a, alloc_mb =
    allocated_mb (fun () ->
        Tdfa_regalloc.Alloc.allocate f layout
          ~policy:Tdfa_regalloc.Policy.First_fit)
  in
  let func = a.Tdfa_regalloc.Alloc.func in
  let tc =
    Tdfa.Driver.transfer_config
      (Tdfa.Driver.default ~layout)
      func a.Tdfa_regalloc.Alloc.assignment
  in
  let config_ms =
    median3 (fun () ->
        Tdfa_core.Flat_core.prepare ~join:Tdfa_core.Flat_core.Join_max
          ~delta_k:Tdfa_core.Analysis.default_settings.Tdfa_core.Analysis.delta_k
          tc func)
  in
  let _, core_alloc_mb =
    allocated_mb (fun () -> Tdfa_core.Analysis.fixpoint tc func)
  in
  let b = Tdfa_absint.Absint.predict tc func in
  let st = b.Tdfa_absint.Absint.stats in
  {
    liveness_iterations = float_of_int (Tdfa_dataflow.Liveness.iterations lv);
    interference_edges =
      float_of_int (Tdfa_regalloc.Interference.num_edges graph);
    alloc_mb;
    config_ms;
    core_alloc_mb;
    gs_sweeps = float_of_int st.Tdfa_absint.Absint.gs_sweeps;
    orbit_steps = float_of_int st.Tdfa_absint.Absint.orbit_steps;
    lint_ctx_ms =
      median3 (fun () -> Tdfa_lint.Lint.make_ctx ~layout f);
    blocks = float_of_int (List.length f.Func.blocks);
  }

(* The placement evaluation layer, timed from outside on a placement's
   chosen assignment. *)
let evaluate_ms ~rows ~cols (placed : Tdfa.Driver.placed) =
  let chip = Tdfa_alloc.Chip.make ~core:layout ~rows ~cols () in
  let tasks = Array.of_list placed.Tdfa.Driver.profiles in
  let assignment = placed.Tdfa.Driver.placement.Tdfa_alloc.Place.assignment in
  let assign =
    Array.map
      (fun (t : Tdfa_alloc.Task.t) -> List.assoc t.Tdfa_alloc.Task.name assignment)
      tasks
  in
  median3 (fun () -> Tdfa_alloc.Place.evaluate chip tasks assign)

let probes : (string, probe) Hashtbl.t = Hashtbl.create 64

let probe f =
  let key = Digest.string (Printer.func_to_string f) in
  match Hashtbl.find_opt probes key with
  | Some p -> p
  | None ->
    let p = probe_func f in
    Hashtbl.replace probes key p;
    p

(* ------------------------------------------------------------------ *)
(* Folding one operation's events                                       *)
(* ------------------------------------------------------------------ *)

let int_arg name args =
  match List.assoc_opt name args with Some (Obs.Int i) -> i | _ -> 0

(* [funcs] are the input functions the operation worked on (probed);
   [t0] is when its sink was created. *)
let absorb ?(tid = 0) ~funcs ~t0 ~ms sink =
  incr ops;
  op_ms := !op_ms +. ms;
  let base_us = (t0 -. !run_t0) *. 1e6 in
  let open_ = Hashtbl.create 64 in
  let closed = ref [] in
  let child_us = Hashtbl.create 64 in
  let inc_mode = Hashtbl.create 4 in
  let counters = Hashtbl.create 8 in
  List.iter
    (fun (e : Obs.event) ->
      match e.Obs.phase with
      | Obs.Begin ->
        Hashtbl.replace open_ e.Obs.id (e.Obs.name, e.Obs.parent, e.Obs.ts_us,
                                        e.Obs.args)
      | Obs.End -> (
        match Hashtbl.find_opt open_ e.Obs.id with
        | Some (name, parent, ts, args) ->
          closed := (e.Obs.id, name, parent, ts, e.Obs.ts_us -. ts, args)
                    :: !closed
        | None -> ())
      | Obs.Complete d ->
        closed := (e.Obs.id, e.Obs.name, e.Obs.parent, e.Obs.ts_us, d,
                   e.Obs.args) :: !closed
      | Obs.Instant -> (
        match e.Obs.name with
        | "analysis.iteration" -> add "core.sweeps" 1.0
        | "analysis.verdict" ->
          incr fixpoints;
          if List.assoc_opt "converged" e.Obs.args = Some (Obs.Bool true)
          then incr converged
        | "incremental.mode" ->
          let mode =
            match List.assoc_opt "mode" e.Obs.args with
            | Some (Obs.Str m) -> m
            | _ -> "cold"
          in
          Hashtbl.replace inc_mode e.Obs.parent mode;
          incr incrementals;
          if mode = "identity" || mode = "warm" then incr warm_reuses;
          dirty_blocks := !dirty_blocks + int_arg "dirty" e.Obs.args
        | _ -> ())
      | Obs.Counter -> (
        match List.assoc_opt "value" e.Obs.args with
        | Some (Obs.Int v) -> Hashtbl.replace counters e.Obs.name v
        | _ -> ()))
    (Obs.events sink);
  List.iter
    (fun (_, _, parent, _, dur, _) ->
      Hashtbl.replace child_us parent
        (dur +. Option.value ~default:0.0 (Hashtbl.find_opt child_us parent)))
    !closed;
  let allocs = ref 0 and fixes = ref 0 and predicts = ref 0 and lints = ref 0 in
  List.iter
    (fun (id, name, _, ts, dur, args) ->
      keep ~name ~ts_us:(base_us +. ts) ~dur_us:dur ~tid;
      let ms = dur /. 1000.0 in
      let self_ms =
        (dur -. Option.value ~default:0.0 (Hashtbl.find_opt child_us id))
        /. 1000.0
      in
      match name with
      | "regalloc.liveness" ->
        add "dataflow.liveness_ms" ms;
        if int_arg "round" args = 1 then incr allocs
      | "regalloc.interference" -> add "regalloc.interference_ms" ms
      | "regalloc.coloring" ->
        add "regalloc.coloring_ms" ms;
        add "regalloc.rounds" 1.0
      | "regalloc.spill" -> add "regalloc.spill_ms" ms
      | "engine.verify" -> add "engine.verify_ms" ms
      | "analysis.fixpoint" ->
        add "core.fixpoint_ms" ms;
        incr fixes
      | "incremental.analyze" -> (
        match Hashtbl.find_opt inc_mode id with
        | Some ("identity" | "warm") -> add "core.warm_ms" ms
        | _ -> add "core.cold_ms" ms)
      | "driver.predict" ->
        add "absint.predict_ms" self_ms;
        incr predicts
      | "lint.func" ->
        add "lint.run_ms" ms;
        incr lints
      | "driver.place" ->
        add "alloc.place_ms" self_ms;
        add "alloc.tasks" (float_of_int (int_arg "tasks" args))
      | "trace.map" | "trace.window" -> add "trace.compile_ms" ms
      | _ -> ())
    !closed;
  Hashtbl.iter
    (fun name v ->
      match name with
      | "regalloc.spilled_vars" | "lint.findings" | "trace.samples"
      | "trace.windows" ->
        add name (float_of_int v)
      | _ -> ())
    counters;
  (* Probe-derived layers, shared evenly across the operation's inputs
     (an operation either works on one function or, for placement,
     handles each of its functions once). *)
  match funcs with
  | [] -> ()
  | _ ->
    let n = float_of_int (List.length funcs) in
    let share k = float_of_int k /. n in
    List.iter
      (fun f ->
        let p = probe f in
        add "dataflow.liveness_iterations"
          (p.liveness_iterations *. share !allocs);
        add "regalloc.interference_edges"
          (p.interference_edges *. share !allocs);
        add "regalloc.alloc_mb" (p.alloc_mb *. share !allocs);
        add "core.config_ms" (p.config_ms *. share !fixes);
        add "core.alloc_mb" (p.core_alloc_mb *. share !fixes);
        add "absint.gs_sweeps" (p.gs_sweeps *. share !predicts);
        add "absint.orbit_steps" (p.orbit_steps *. share !predicts);
        add "lint.ctx_ms" (p.lint_ctx_ms *. share !lints);
        if Hashtbl.length inc_mode > 0 then
          total_blocks :=
            !total_blocks
            + int_of_float (p.blocks *. float_of_int (Hashtbl.length inc_mode)
                            /. n))
      funcs

(* ------------------------------------------------------------------ *)
(* Results                                                              *)
(* ------------------------------------------------------------------ *)

(* (name, unit) of every per-layer metric, in table order. *)
let catalogue =
  [
    ("ir.parse_ms", "ms"); ("ir.parse_bytes", "bytes");
    ("dataflow.liveness_ms", "ms"); ("dataflow.liveness_iterations", "count");
    ("regalloc.interference_ms", "ms");
    ("regalloc.interference_edges", "count");
    ("regalloc.coloring_ms", "ms"); ("regalloc.spill_ms", "ms");
    ("regalloc.rounds", "count"); ("regalloc.spilled_vars", "count");
    ("regalloc.alloc_mb", "MB");
    ("engine.job_ms", "ms"); ("engine.verify_ms", "ms");
    ("core.config_ms", "ms"); ("core.fixpoint_ms", "ms");
    ("core.sweeps", "count"); ("core.converged_share", "share");
    ("core.alloc_mb", "MB");
    ("core.warm_ms", "ms"); ("core.cold_ms", "ms");
    ("core.warm_reuse_share", "share"); ("core.dirty_block_share", "share");
    ("absint.predict_ms", "ms"); ("absint.gs_sweeps", "count");
    ("absint.orbit_steps", "count");
    ("lint.ctx_ms", "ms"); ("lint.run_ms", "ms"); ("lint.findings", "count");
    ("alloc.place_ms", "ms"); ("alloc.evaluate_ms", "ms");
    ("alloc.tasks", "count");
    ("trace.parse_ms", "ms"); ("trace.compile_ms", "ms");
    ("trace.samples", "count"); ("trace.windows", "count");
    ("serve.decode_ms", "ms"); ("serve.handle_ms", "ms");
    ("serve.render_ms", "ms"); ("serve.wire_ms", "ms");
    ("serve.frame_bytes", "bytes"); ("serve.degraded", "count");
    ("serve.errors", "count");
    ("bench.traced_op_ms", "ms"); ("bench.trace_overhead_share", "share");
  ]

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Every metric per operation of the traced run; shares are ratios. *)
let metrics () =
  let per_op v = if !ops = 0 then 0.0 else v /. float_of_int !ops in
  List.map
    (fun (name, unit_) ->
      let v =
        match name with
        | "core.converged_share" -> ratio !converged !fixpoints
        | "core.warm_reuse_share" -> ratio !warm_reuses !incrementals
        | "core.dirty_block_share" -> ratio !dirty_blocks !total_blocks
        | "bench.traced_op_ms" -> per_op !op_ms
        | "bench.trace_overhead_share" ->
          if !paired_untraced_ms = 0.0 then 0.0
          else (!paired_traced_ms -. !paired_untraced_ms) /. !paired_untraced_ms
        | _ -> per_op (get name)
      in
      (name, unit_, v))
    catalogue

let write_table path =
  let oc = open_out path in
  Printf.fprintf oc "%d traced operations, %.3f ms per operation\n\n" !ops
    (if !ops = 0 then 0.0 else !op_ms /. float_of_int !ops);
  Printf.fprintf oc "%-32s %14s %8s %s\n" "layer metric" "per op" "share"
    "unit";
  List.iter
    (fun (name, unit_, v) ->
      let share =
        if unit_ = "ms" && name <> "bench.traced_op_ms" && !op_ms > 0.0 then
          Printf.sprintf "%7.1f%%" (100.0 *. get name /. !op_ms)
        else "       -"
      in
      Printf.fprintf oc "%-32s %14.4f %s %s\n" name v share unit_)
    (metrics ());
  close_out oc

let write_chrome path =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i k ->
      Printf.fprintf oc
        "%s{\"name\":%S,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d}\n"
        (if i = 0 then "" else ",")
        k.k_name k.k_ts_us k.k_dur_us k.k_tid)
    (List.rev !kept);
  output_string oc "]\n";
  close_out oc

(* The benchmark's own parse of an input's IR text: timed from outside
   as the parser layer. *)
let parse_func text =
  let t0 = Util.now () in
  let f, ms = Util.timed (fun () -> Parser.parse_func text) in
  if !enabled then begin
    add "ir.parse_ms" ms;
    add "ir.parse_bytes" (float_of_int (String.length text));
    outside "ir.parse" ~t0 ~ms
  end;
  f
