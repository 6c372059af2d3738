(* The measurement loop of the in-process workloads (kernels,
   large-funcs): operations run one after another, fresh set-ups are
   interleaved at evenly spaced times, every execution is timed and
   checked. *)

open Tdfa_obs

type op = {
  key : string;  (** the check key of the output it renders *)
  funcs : Tdfa_ir.Func.t list;  (** inputs, for the traced run's probes *)
  layer : string option;
      (** a per-layer metric that is the whole operation's time *)
  run : Obs.sink -> unit -> bool;
      (** do the work under the sink; the returned closure checks it *)
}

let checked key f =
  let ok = try f () with e ->
    Printf.eprintf "perfbench: %s raised %s\n%!" key (Printexc.to_string e);
    false
  in
  Util.Tally.record ~key ok

(* Run one operation untraced; its time in milliseconds. *)
let exec_plain op =
  let t0 = Util.now () in
  match op.run Obs.null with
  | check ->
    let ms = (Util.now () -. t0) *. 1000.0 in
    checked op.key check;
    Some ms
  | exception e ->
    checked op.key (fun () -> raise e);
    None

let exec_traced op =
  let sink = Obs.memory () in
  let t0 = Util.now () in
  match op.run sink with
  | check ->
    let ms = (Util.now () -. t0) *. 1000.0 in
    Layers.absorb ~funcs:op.funcs ~t0 ~ms sink;
    Layers.outside ("bench.op " ^ op.key) ~t0 ~ms;
    Option.iter (fun l -> Layers.add l ms) op.layer;
    checked op.key check;
    Some ms
  | exception e ->
    checked op.key (fun () -> raise e);
    None

(* Every fourth traced operation is also run untraced, alternating
   which goes first, to measure what tracing costs. *)
let pair_every = 4

let exec_traced_paired i op =
  if i mod pair_every <> 0 then exec_traced op
  else
    let traced_first = i / pair_every mod 2 = 0 in
    let a = if traced_first then exec_traced op else exec_plain op in
    let b = if traced_first then exec_plain op else exec_traced op in
    let traced, plain = if traced_first then (a, b) else (b, a) in
    (match (traced, plain) with
     | Some t, Some p ->
       Layers.paired_traced_ms := !Layers.paired_traced_ms +. t;
       Layers.paired_untraced_ms := !Layers.paired_untraced_ms +. p
     | _ -> ());
    traced

(* [setup ()] rebuilds the workload's state from scratch (it is the
   timed set-up); [pass ()] lists one pass of operations as thunks
   resolved at execution time, so a set-up in the middle of a pass
   hands the rest of the pass the fresh state. Returns the end-to-end
   metrics. *)
let measure ~seconds ~setups ~setup ~pass =
  let ops = ref [] in
  let setup_s = ref [] in
  let setup_total = ref 0.0 in
  let queue = ref [] in
  let index = ref 0 in
  let sched = Util.Schedule.create ~seconds ~setups in
  Layers.run_t0 := sched.Util.Schedule.t0;
  if not !Layers.enabled then Calib.start ();
  while not (Util.Schedule.over sched) do
    if not !Layers.enabled then Calib.tick ();
    let t0 = Util.now () in
    if Util.Schedule.setup_due sched then begin
      let (), ms = Util.timed setup in
      Layers.outside "bench.setup" ~t0 ~ms;
      Util.Schedule.mark_setup sched;
      setup_s := (t0, ms /. 1000.0) :: !setup_s;
      setup_total := !setup_total +. (ms /. 1000.0)
    end
    else begin
      if !queue = [] then queue := pass ();
      match !queue with
      | [] -> failwith "empty pass"
      | th :: rest ->
        queue := rest;
        let op = th () in
        let ms =
          if !Layers.enabled then exec_traced_paired !index op
          else exec_plain op
        in
        incr index;
        Option.iter (fun ms -> ops := (t0, ms) :: !ops) ms
    end
  done;
  let wall =
    Util.now () -. sched.Util.Schedule.t0 -. !setup_total -. !Calib.spent_s
  in
  Util.end_to_end ~speed:(Calib.factors ()) ~ops:!ops ~setups:!setup_s ~wall
    ~rss_mb:(Util.vmhwm_mb "self")

(* The untimed reference pass: a set-up and one full pass whose outputs
   become the expected bytes of every later execution. *)
let reference ~setup ~pass =
  Util.Expect.recording := true;
  setup ();
  List.iter (fun th -> ignore (exec_plain (th ()))) (pass ());
  Util.Expect.recording := false
