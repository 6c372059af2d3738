(* The repository benchmark. See perfbench/README.md for the workloads,
   the metrics and how to run it; perfbench/run.py builds this
   executable and is the command to use. *)

let default_seed = 1

let usage =
  "bench.exe --workload kernels|large-funcs|serve-mix --seed N --seconds S \
   --trace 0|1 [--tdfa EXE] [--out DIR] [--golden DIR] [--write-golden] \
   [--flip-expected]"

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 0.0 in
  let trace = ref 0 and tdfa = ref "" and out = ref ".perfbench" in
  let golden = ref "" and write_golden = ref false and flip = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--tdfa", Arg.Set_string tdfa, "EXE tdfa CLI (serve-mix)");
      ("--out", Arg.Set_string out, "DIR traced outputs and sockets");
      ("--golden", Arg.Set_string golden, "DIR golden digests");
      ("--write-golden", Arg.Set write_golden, " rewrite the golden digests");
      ("--flip-expected", Arg.Set flip, " self-test: corrupt one reference");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !seconds <= 0.0 then begin
    (* run.py passes BENCHMARK.json's run_seconds; no second default. *)
    Printf.eprintf "perfbench: --seconds S (S > 0) is required\n%s\n" usage;
    exit 2
  end;
  (try if not (Sys.file_exists !out) then Sys.mkdir !out 0o755
   with Sys_error _ -> ());
  Layers.enabled := !trace = 1;
  let golden_file = Filename.concat !golden (!workload ^ ".md5") in
  (* After the reference pass: golden digests at the default seed, and
     the self-test's corrupted reference. *)
  let after_reference () =
    if !golden <> "" && !seed = default_seed then
      if !write_golden then Util.Expect.write_golden golden_file
      else Util.Expect.check_golden golden_file;
    if !flip then Util.Expect.flip_one ()
  in
  let seconds = !seconds and seed = !seed in
  let setups = 9 in
  let metrics =
    match !workload with
    | "kernels" ->
      let setup, pass = Kernels_wl.make ~seed in
      Seqrun.reference ~setup ~pass;
      after_reference ();
      Seqrun.measure ~seconds ~setups ~setup ~pass
    | "large-funcs" ->
      let setup, pass = Large_wl.make ~seed in
      Seqrun.reference ~setup ~pass;
      after_reference ();
      Seqrun.measure ~seconds ~setups ~setup ~pass
    | "serve-mix" ->
      Serve_wl.run ~seed ~seconds ~setups ~tdfa:!tdfa ~dir:!out
        ~after_reference
    | w ->
      Printf.eprintf "perfbench: unknown workload %S\n%s\n" w usage;
      exit 2
  in
  if !Layers.enabled then begin
    let stem =
      Filename.concat !out (Printf.sprintf "%s-seed%d" !workload seed)
    in
    Layers.write_table (stem ^ "-layers.txt");
    Layers.write_chrome (stem ^ "-trace.json");
    Util.print_result ~metrics:(Layers.metrics ())
  end
  else Util.print_result ~metrics
