(* serve-mix: a [tdfa serve] daemon in a child process, driven closed
   loop over two connections with one outstanding request each.

   The mix, per unit of work drawn on a connection (chosen, apart from
   the identity share; perfbench/README.md gives the reasons):
   - 40 %: an analyze of a small function followed by a reanalyze; 90 %
     of the reanalyzes send no change (E20's identity share), the rest
     send an edited function;
   - 18 % predict, 18 % lint, 9 % place of four kernels on a 2x2
     chip;
   - 15 %: a trace frame of 0.4 to 2 MB of inline samples, about a tenth
     of all requests. Each one also holds up the other connection's
     next request, so about a fifth of the round trips are long and the
     90th percentile falls inside them.
   Every reply must carry byte for byte the output of the same Render
   call made in process. *)

open Tdfa_ir
module Json = Tdfa_serve.Json
module Render = Tdfa_serve.Render
module Server = Tdfa_serve.Server
module Session = Tdfa_serve.Session
module Gen = Tdfa_workload.Generator

let policy = Tdfa_regalloc.Policy.First_fit
let delta = Tdfa_core.Analysis.default_settings.Tdfa_core.Analysis.delta_k
let conns = 2

type req = {
  line : string;  (** the request frame, without its newline *)
  key : string;  (** the expected output it must carry *)
  funcs : Func.t list;  (** inputs, for the traced run's probes *)
  ir : string option;  (** inline IR text *)
  trace_text : string option;  (** inline samples *)
  unit_end : bool;  (** a set-up may follow this request *)
  evaluate_ms : float;  (** place: the evaluation layer, timed in process *)
}

(* ------------------------------------------------------------------ *)
(* Inputs                                                               *)
(* ------------------------------------------------------------------ *)

let small_funcs = 8
let trace_frames = 8
let place_sets = 6

let frame fields = Json.to_string (Json.Obj fields)

(* Build the distinct requests and record their expected outputs. *)
let inputs ~seed =
  let rng = Random.State.make [| seed; 0x5e |] in
  (* Small functions on fixed instruction-count rungs. The edit of each
     changes its loop trip counts: it takes the first larger [max_trip]
     whose text differs. A rung whose function has no loop takes the
     next candidate instead, so every edited reanalyze sends a changed
     function. *)
  let print p = Printer.func_to_string (Gen.generate p) in
  let trip_edit p text =
    List.find_map
      (fun d ->
        let edited = print { p with Gen.max_trip = p.Gen.max_trip + d } in
        if edited <> text then Some edited else None)
      (List.init 32 (fun d -> d + 1))
  in
  let rec editable rung target attempt =
    if attempt >= 50 then failwith "serve-mix: no small function with a loop";
    let p =
      Large_wl.pick ~seed
        ~salt:(900_000 + (rung * 7919) + (attempt * 104_729))
        ~pool:8 target
    in
    let text = print p in
    match trip_edit p text with
    | Some edited -> (text, edited)
    | None -> editable rung target (attempt + 1)
  in
  let parse text = Parser.parse_func text in
  let small =
    Array.of_list
      (List.mapi
         (fun k target ->
           let text, edited = editable k target 0 in
           (k, text, parse text, edited, parse edited))
         (Large_wl.rungs ~lo:40.0 ~hi:120.0 small_funcs))
  in
  let analyze_out f =
    fst
      (Render.analyze ~policy ~granularity:1 ~delta ~pre_ra:false
         ~recover:false ~incremental:false f)
  in
  let mk ?ir ?trace_text ?(funcs = []) ?(unit_end = true) ?(evaluate_ms = 0.0)
      key fields =
    { line = frame fields; key; funcs; ir; trace_text; unit_end; evaluate_ms }
  in
  let per_func =
    Array.map
      (fun (k, text, f, edited, f') ->
        let key = Printf.sprintf "analyze/%d" k in
        Util.Expect.set key (analyze_out f);
        let key' = Printf.sprintf "analyze-edited/%d" k in
        Util.Expect.set key' (analyze_out f');
        let pkey = Printf.sprintf "predict/%d" k in
        Util.Expect.set pkey
          (fst (Render.predict ~policy ~granularity:1 ~delta ~pre_ra:false f));
        let lkey = Printf.sprintf "lint/%d" k in
        Util.Expect.set lkey (fst (Render.lint ~post_ra:false ~policy f));
        let with_ir op = [ ("op", Json.Str op); ("ir", Json.Str text) ] in
        ( mk ~ir:text ~funcs:[ f ] ~unit_end:false key
            (with_ir "analyze" @ [ ("incremental", Json.Bool true) ]),
          mk ~funcs:[ f ] key [ ("op", Json.Str "reanalyze") ],
          mk ~ir:edited ~funcs:[ f' ] key'
            [ ("op", Json.Str "reanalyze"); ("ir", Json.Str edited) ],
          mk ~ir:text ~funcs:[ f ] pkey (with_ir "predict"),
          mk ~ir:text ~funcs:[ f ] lkey (with_ir "lint") ))
      small
  in
  let analyze = Array.map (fun (a, _, _, _, _) -> a) per_func in
  let reanalyze_same = Array.map (fun (_, r, _, _, _) -> r) per_func in
  let reanalyze_edit = Array.map (fun (_, _, e, _, _) -> e) per_func in
  let predict = Array.map (fun (_, _, _, p, _) -> p) per_func in
  let lint = Array.map (fun (_, _, _, _, l) -> l) per_func in
  let shuffle rng a =
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  let kernels = Array.of_list Tdfa_workload.Kernels.all in
  let place =
    Array.init place_sets (fun j ->
        let names =
          Array.to_list (Array.sub (shuffle rng (Array.map fst kernels)) 0 4)
        in
        let funcs =
          List.map (fun n -> Option.get (Tdfa_workload.Kernels.find n)) names
        in
        let out, placed, _ =
          Render.place ~policy ~granularity:1 ~delta ~geometry:(2, 2)
            ~place_policy:Tdfa_alloc.Place.Greedy funcs
        in
        let key = Printf.sprintf "place/%d" j in
        Util.Expect.set key out;
        (* The evaluation layer cannot be reached through the daemon;
           it is timed here on the same placement. *)
        let evaluate_ms = Layers.evaluate_ms ~rows:2 ~cols:2 placed in
        mk ~funcs ~evaluate_ms key
          [ ("op", Json.Str "place"); ("kernels", Json.Str (String.concat "," names));
            ("cores", Json.Str "2x2"); ("place", Json.Str "greedy") ])
  in
  (* Trace frames on a fixed ladder of sizes; the seed draws the
     streams. *)
  let bytes_per_sample =
    let s = Tdfa_trace.Synth.zipf ~seed ~s:1.0 ~addrs:512 ~n:2000 () in
    float_of_int (String.length (Tdfa_trace.Sample.print s)) /. 2000.0
  in
  let trace =
    Array.init trace_frames (fun k ->
        let mb =
          0.4 +. (1.6 *. float_of_int k /. float_of_int (trace_frames - 1))
        in
        let n = int_of_float (mb *. 1e6 /. bytes_per_sample) in
        let s =
          Tdfa_trace.Synth.zipf ~seed:((seed * 131) + k)
            ~s:(0.8 +. (0.05 *. float_of_int k))
            ~addrs:512 ~n ()
        in
        let text = Tdfa_trace.Sample.print s in
        let key = Printf.sprintf "trace/%d" k in
        (match Tdfa_trace.Sample.parse text with
         | Ok sample ->
           Util.Expect.set key
             (fst
                (Render.trace ~window_us:1000
                   ~policy:Tdfa_trace.Mapping.Direct ~cells:64 ~granularity:1
                   ~delta ~recover:false sample))
         | Error msg -> failwith ("trace frame does not parse: " ^ msg));
        mk ~trace_text:text key
          [ ("op", Json.Str "trace"); ("trace", Json.Str text) ])
  in
  (* Per-connection scripts of whole units, dealt from shuffled decks of
     200 units holding the mix exactly, so every run and every seed
     sees the same proportions. *)
  let script c =
    let rng = Random.State.make [| seed; 0xc0; c |] in
    let cycle n =
      let i = ref (Random.State.int rng n) in
      fun () ->
        incr i;
        !i mod n
    in
    let next_func = cycle small_funcs
    and next_trace = cycle trace_frames
    and next_place = cycle place_sets in
    let deal () =
      let deck =
        shuffle rng
          (Array.concat
             [ Array.make 80 `Pair; Array.make 36 `Predict; Array.make 36 `Lint;
               Array.make 18 `Place; Array.make 30 `Trace ])
      in
      let edits = shuffle rng (Array.init 80 (fun i -> i < 8)) in
      let pairs = ref 0 in
      Array.to_list deck
      |> List.concat_map (function
           | `Pair ->
             let k = next_func () in
             let edit = edits.(!pairs) in
             incr pairs;
             [ analyze.(k);
               (if edit then reanalyze_edit.(k) else reanalyze_same.(k)) ]
           | `Predict -> [ predict.(next_func ()) ]
           | `Lint -> [ lint.(next_func ()) ]
           | `Place -> [ place.(next_place ()) ]
           | `Trace -> [ trace.(next_trace ()) ])
    in
    Array.of_list (List.concat (List.init 20 (fun _ -> deal ())))
  in
  Array.init conns script

(* ------------------------------------------------------------------ *)
(* The daemon                                                           *)
(* ------------------------------------------------------------------ *)

type conn = {
  cid : int;
  script : req array;
  mutable pos : int;
  mutable fd : Unix.file_descr option;
  buf : Buffer.t;
  mutable inflight : (req * float) option;
}

type daemon = { pid : int; out : in_channel; socket : string }

let live : daemon option ref = ref None

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(* Block until one whole reply line is buffered; return it. *)
let rec read_line c fd =
  let contents = Buffer.contents c.buf in
  match String.index_opt contents '\n' with
  | Some i ->
    Buffer.clear c.buf;
    Buffer.add_string c.buf
      (String.sub contents (i + 1) (String.length contents - i - 1));
    String.sub contents 0 i
  | None ->
    let b = Bytes.create 65536 in
    let n = Unix.read fd b 0 65536 in
    if n = 0 then failwith "daemon closed the connection";
    Buffer.add_subbytes c.buf b 0 n;
    read_line c fd

let fd_of c = Option.get c.fd

let start ~tdfa ~socket =
  let r, w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process tdfa [| tdfa; "serve"; "--socket"; socket |] devnull w
      Unix.stderr
  in
  Unix.close w;
  Unix.close devnull;
  let d = { pid; out = Unix.in_channel_of_descr r; socket } in
  live := Some d;
  (match input_line d.out with
   | _ -> ()
   | exception End_of_file -> failwith "tdfa serve exited before listening");
  d

let connect d c =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX d.socket);
  c.fd <- Some fd;
  Buffer.clear c.buf;
  write_all fd "{\"op\":\"status\"}\n" 0;
  ignore (read_line c fd)

let stop d cs =
  let hwm = Util.vmhwm_mb (string_of_int d.pid) in
  (match cs with
   | c :: _ ->
     write_all (fd_of c) "{\"op\":\"shutdown\"}\n" 0;
     ignore (read_line c (fd_of c))
   | [] -> ());
  List.iter
    (fun c ->
      Option.iter Unix.close c.fd;
      c.fd <- None)
    cs;
  (try
     while true do
       ignore (input_line d.out)
     done
   with End_of_file -> ());
  close_in d.out;
  ignore (Unix.waitpid [] d.pid);
  live := None;
  hwm

let () =
  at_exit (fun () ->
      match !live with
      | Some d ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
        live := None
      | None -> ())

(* ------------------------------------------------------------------ *)
(* Checks and the traced twin                                          *)
(* ------------------------------------------------------------------ *)

let reply_output line =
  match Json.of_string line with
  | Ok j when Json.bool_member "ok" j = Some true -> Json.str_member "output" j
  | _ -> None

let check req line =
  match reply_output line with
  | Some out -> Util.Expect.observe req.key out
  | None -> false

(* Replay a request in process through the daemon's own request
   handler, under a memory sink, and fold the layers. Returns whether
   the twin's reply also carries the expected output. The traced run
   replays after the measured window, so the replay never delays the
   reading of a reply and the round trips stay those of the daemon. *)
let twin ~tid mirror req ~rtt_ms ~index =
  let run sink =
    let server =
      Server.create
        ~config:{ Server.default_config with Server.obs = sink } ()
    in
    Util.timed (fun () -> Server.handle_line server mirror req.line)
  in
  let t_dec = Util.now () in
  let _, dec_ms = Util.timed (fun () -> Tdfa_serve.Protocol.request_of_line req.line) in
  Layers.add "serve.decode_ms" dec_ms;
  Layers.outside ~tid "serve.decode" ~t0:t_dec ~ms:dec_ms;
  Option.iter (fun text -> ignore (Layers.parse_func text)) req.ir;
  Option.iter
    (fun text ->
      let t0 = Util.now () in
      let _, ms = Util.timed (fun () -> Tdfa_trace.Sample.parse text) in
      Layers.add "trace.parse_ms" ms;
      Layers.outside ~tid "trace.parse" ~t0 ~ms)
    req.trace_text;
  let sink = Tdfa_obs.Obs.memory () in
  let t0 = Util.now () in
  let outcome, handle_ms = run sink in
  Layers.absorb ~tid ~funcs:req.funcs ~t0 ~ms:rtt_ms sink;
  Layers.outside ~tid "serve.handle_line" ~t0 ~ms:handle_ms;
  Layers.add "serve.handle_ms" handle_ms;
  Layers.add "serve.wire_ms" (rtt_ms -. handle_ms);
  Layers.add "serve.frame_bytes" (float_of_int (String.length req.line));
  Layers.add "alloc.evaluate_ms" req.evaluate_ms;
  if index mod Seqrun.pair_every = 0 then begin
    let _, plain_ms = run Tdfa_obs.Obs.null in
    Layers.paired_traced_ms := !Layers.paired_traced_ms +. handle_ms;
    Layers.paired_untraced_ms := !Layers.paired_untraced_ms +. plain_ms
  end;
  match outcome with
  | Server.Reply j ->
    let s, render_ms = Util.timed (fun () -> Json.to_string j) in
    Layers.add "serve.render_ms" render_ms;
    if Json.member "degraded" j <> None then Layers.add "serve.degraded" 1.0;
    if Json.bool_member "ok" j <> Some true then Layers.add "serve.errors" 1.0;
    check req s
  | Server.Dropped | Server.Shutdown_now _ ->
    Layers.add "serve.errors" 1.0;
    false

(* ------------------------------------------------------------------ *)
(* The run                                                              *)
(* ------------------------------------------------------------------ *)

let run ~seed ~seconds ~setups ~tdfa ~dir ~after_reference =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  if tdfa = "" || not (Sys.file_exists tdfa) then
    failwith "serve-mix needs --tdfa pointing at the tdfa executable";
  let scripts = inputs ~seed in
  after_reference ();
  let cs =
    List.init conns (fun cid ->
        {
          cid;
          script = scripts.(cid);
          pos = 0;
          fd = None;
          buf = Buffer.create 65536;
          inflight = None;
        })
  in
  let socket =
    Filename.concat dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ()))
  in
  let ops = ref [] in
  let setup_s = ref [] and setup_total = ref 0.0 and hwms = ref [] in
  let daemon = ref None in
  let replay = ref [] in
  let send c =
    let req = c.script.(c.pos mod Array.length c.script) in
    c.pos <- c.pos + 1;
    let t0 = Util.now () in
    write_all (fd_of c) (req.line ^ "\n") 0;
    c.inflight <- Some (req, t0)
  in
  let complete c line =
    match c.inflight with
    | None -> failwith "reply without a request"
    | Some (req, t0) ->
      let rtt_ms = (Util.now () -. t0) *. 1000.0 in
      c.inflight <- None;
      ops := (t0, rtt_ms) :: !ops;
      Layers.outside ~tid:(c.cid + 1) ("bench.request " ^ req.key) ~t0
        ~ms:rtt_ms;
      if !Layers.enabled then replay := `Op (c.cid, req, rtt_ms) :: !replay;
      Util.Tally.record ~key:req.key (check req line);
      req
  in
  let setup () =
    Option.iter (fun d -> hwms := stop d cs :: !hwms) !daemon;
    let t0 = Util.now () in
    let (), ms =
      Util.timed (fun () ->
          let d = start ~tdfa ~socket in
          daemon := Some d;
          List.iter (connect d) cs)
    in
    Layers.outside "bench.setup" ~t0 ~ms;
    replay := `Reset :: !replay;
    setup_s := (t0, ms /. 1000.0) :: !setup_s;
    setup_total := !setup_total +. (ms /. 1000.0)
  in
  let sched = Util.Schedule.create ~seconds ~setups in
  Layers.run_t0 := sched.Util.Schedule.t0;
  if not !Layers.enabled then Calib.start ();
  let pausing = ref true in
  let finished = ref false in
  while not !finished do
    let idle = List.for_all (fun c -> c.inflight = None) cs in
    let over = Util.Schedule.over sched in
    if idle && over then finished := true
    else if idle && !pausing then begin
      (* Every connection sits at a unit boundary: a fresh set-up. *)
      setup ();
      Util.Schedule.mark_setup sched;
      pausing := false;
      List.iter send cs
    end
    else begin
      let fds = List.filter_map (fun c ->
          if c.inflight <> None then c.fd else None) cs in
      (* The daemon shares this process's CPU, so a calibration here
         also holds up the daemon while it runs: it adds under a
         millisecond, every 100 ms, to the round trips in flight. *)
      if not !Layers.enabled then Calib.tick ();
      let readable, _, _ =
        try Unix.select fds [] [] Calib.interval_s
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun c ->
          match c.fd with
          | Some fd when List.mem fd readable ->
            let line = read_line c fd in
            let req = complete c line in
            if Util.Schedule.setup_due sched || Util.Schedule.over sched then
              pausing := true;
            (* A connection pauses only between units, so a set-up never
               separates an analyze from its reanalyze. *)
            if not (!pausing && req.unit_end) then send c
          | _ -> ())
        cs
    end
  done;
  Option.iter (fun d -> hwms := stop d cs :: !hwms) !daemon;
  let wall =
    Util.now () -. sched.Util.Schedule.t0 -. !setup_total -. !Calib.spent_s
  in
  (* The traced run's in-process replay: one twin session per
     connection, renewed wherever the daemon was. *)
  let mirrors = Array.make conns (Session.create "twin") in
  List.iteri
    (fun index -> function
      | `Reset ->
        Array.iteri (fun i _ -> mirrors.(i) <- Session.create "twin") mirrors
      | `Op (cid, req, rtt_ms) ->
        let ok =
          try twin ~tid:(cid + 1) mirrors.(cid) req ~rtt_ms ~index
          with _ -> false
        in
        Util.Tally.record ~key:("twin " ^ req.key) ok)
    (List.rev !replay);
  Util.end_to_end ~speed:(Calib.factors ()) ~ops:!ops ~setups:!setup_s ~wall
    ~rss_mb:(Util.median_of !hwms)
