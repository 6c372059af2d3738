(* The public face of the analysis stack: [Tdfa.Driver.run] over one
   [Tdfa.Driver.config]. The implementation lives in [Tdfa_core.Driver]
   (it must sit below [Setup] so the deprecated wrappers can delegate to
   it); this re-export is the name everything outside the core calls. *)

include Tdfa_core.Driver

(* Predict mode: certified [lo, hi] steady-state bounds from the
   abstract interpreter (Tdfa_absint) instead of the fixpoint. It
   accepts the same closed set of inputs as [run] — allocation still
   happens for [Unallocated] — but never iterates the thermal state. *)

type mode = Analyze | Predict | Place

let mode_name = function
  | Analyze -> "analyze"
  | Predict -> "predict"
  | Place -> "place"

type prediction = {
  pre_alloc : Tdfa_regalloc.Alloc.result option;
      (** [Some] iff the input was [Unallocated] *)
  bounds : Tdfa_absint.Absint.t;
}

type mode_result =
  | Analyzed of result
  | Predicted of prediction
  | Placed of placed

(* Place mode: the jobs' thermal profiles decide where they run. Every
   input is analysed exactly as [run] would (allocation included), its
   fixpoint outcome folded into a [Tdfa_alloc.Task.t], and the multiset
   placed onto an N-core chip whose cores carry [cfg.layout]. *)
and placed = {
  profiles : Tdfa_alloc.Task.t list;
      (** per input, in submission order — names from the carrier
          functions *)
  placement : Tdfa_alloc.Place.placement;
}

let input_func : input -> Tdfa_ir.Func.t = function
  | Unallocated f
  | Assigned (f, _)
  | Configured (_, f)
  | Custom { func = f; _ }
  | Warm_start { func = f; _ }
  | Trace { func = f; _ } ->
    f

let place ?(geometry = (2, 2)) ?(policy = Tdfa_alloc.Place.Greedy)
    (cfg : config) (inputs : input list) =
  let rows, cols = geometry in
  let chip =
    Tdfa_alloc.Chip.make ~params:cfg.params ~core:cfg.layout ~rows ~cols ()
  in
  let obs = cfg.obs in
  Tdfa_obs.Obs.span obs "driver.place"
    ~args:
      [
        ("cores", Tdfa_obs.Obs.Int (Tdfa_alloc.Chip.num_cores chip));
        ("tasks", Tdfa_obs.Obs.Int (List.length inputs));
      ]
    (fun () ->
      Tdfa_obs.Obs.incr obs "driver.places";
      let profiles =
        List.map
          (fun input ->
            let name = (input_func input).Tdfa_ir.Func.name in
            let r = run cfg input in
            Tdfa_alloc.Task.of_outcome ~params:cfg.params ~core:cfg.layout
              ~name r.outcome)
          inputs
      in
      { profiles; placement = Tdfa_alloc.Place.run chip policy profiles })

let predict (cfg : config) input =
  let module Analysis = Tdfa_core.Analysis in
  let obs = cfg.obs in
  Tdfa_obs.Obs.span obs "driver.predict"
    ~args:[ ("granularity", Tdfa_obs.Obs.Int cfg.granularity) ]
    (fun () ->
      Tdfa_obs.Obs.incr obs "driver.predicts";
      let bounds_of tc func =
        Tdfa_absint.Absint.predict ~obs ~delta_k:cfg.settings.Analysis.delta_k
          ~max_iterations:cfg.settings.Analysis.max_iterations tc func
      in
      match input with
      | Unallocated func ->
        let a =
          Tdfa_regalloc.Alloc.allocate ~obs func cfg.layout
            ~policy:cfg.policy
        in
        let func = a.Tdfa_regalloc.Alloc.func in
        let tc = transfer_config cfg func a.Tdfa_regalloc.Alloc.assignment in
        { pre_alloc = Some a; bounds = bounds_of tc func }
      | Assigned (func, assignment) ->
        let tc = transfer_config cfg func assignment in
        { pre_alloc = None; bounds = bounds_of tc func }
      | Configured (tc, func) -> { pre_alloc = None; bounds = bounds_of tc func }
      | Custom { config_of; func } ->
        let tc = config_of ~granularity:cfg.granularity in
        { pre_alloc = None; bounds = bounds_of tc func }
      | Warm_start { func; assignment; _ } ->
        let tc = transfer_config cfg func assignment in
        { pre_alloc = None; bounds = bounds_of tc func }
      | Trace { func; accesses } ->
        (* Mirrors the trace configuration [run] builds: cells come
           straight from the events, every block at frequency 1,
           terminators touch nothing. *)
        let tc =
          Tdfa_core.Transfer.make_config ~params:cfg.params
            ~granularity:cfg.granularity ?analysis_dt_s:cfg.analysis_dt_s
            ~max_frequency:1.0 ~layout:cfg.layout
            ~block_frequency:(fun _ -> 1.0)
            ~accesses_of_instr:(fun label index _ -> accesses label index)
            ~accesses_of_term:(fun _ _ -> [])
            ()
        in
        { pre_alloc = None; bounds = bounds_of tc func })

let run_mode ~mode cfg input =
  match mode with
  | Analyze -> Analyzed (run cfg input)
  | Predict -> Predicted (predict cfg input)
  | Place -> Placed (place cfg [ input ])
