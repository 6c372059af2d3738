(* Clock, statistics, process memory and result printing shared by the
   three workloads. *)

let now = Unix.gettimeofday

(* Milliseconds spent in [f ()], with its result. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, (now () -. t0) *. 1000.0)

(* Nearest-rank percentile of an ascending array. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) i))

let median_of l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* VmHWM (peak resident set) of a process in MB, from /proc. *)
let vmhwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %d kB"
            (fun kb -> float_of_int kb /. 1024.0)
        else scan ()
    in
    let r = scan () in
    close_in ic;
    r

(* Counts operations and failures; a failed check is reported on stderr
   once per key so a broken run explains itself. *)
module Tally = struct
  let attempted = ref 0
  let failed = ref 0
  let reported = Hashtbl.create 16

  let record ~key ok =
    incr attempted;
    if not ok then begin
      incr failed;
      if not (Hashtbl.mem reported key) then begin
        Hashtbl.replace reported key ();
        Printf.eprintf "perfbench: check failed: %s\n%!" key
      end
    end
end

(* Expected outputs: the first rendering of every operation key is the
   reference every later execution must reproduce byte for byte. At the
   default seed the references are also compared with the committed
   golden digests. *)
module Expect = struct
  let table : (string, string) Hashtbl.t = Hashtbl.create 64
  let order = ref []

  let recording = ref false

  let set key out =
    if not (Hashtbl.mem table key) then order := key :: !order;
    Hashtbl.replace table key out

  (* While the reference pass records, every output is the reference;
     afterwards every output must equal it. *)
  let observe key out =
    if !recording then begin
      set key out;
      true
    end
    else
      match Hashtbl.find_opt table key with
      | Some e -> String.equal e out
      | None -> false

  (* The self-test: corrupt one reference so every execution of that
     key must be counted as failed. *)
  let flip_one () =
    match List.rev !order with
    | [] -> ()
    | key :: _ ->
      let b = Bytes.of_string (Hashtbl.find table key) in
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
      Hashtbl.replace table key (Bytes.to_string b)

  let digests () =
    List.rev_map
      (fun k -> (k, Digest.to_hex (Digest.string (Hashtbl.find table k))))
      !order
    |> List.sort compare

  let write_golden path =
    (try Sys.mkdir (Filename.dirname path) 0o755 with Sys_error _ -> ());
    let oc = open_out path in
    List.iter (fun (k, d) -> Printf.fprintf oc "%s %s\n" k d) (digests ());
    close_out oc

  (* One tallied operation per golden entry: a missing or differing
     reference counts as failed. *)
  let check_golden path =
    if not (Sys.file_exists path) then Tally.record ~key:("golden " ^ path) false
    else
    let ic = open_in path in
    let rec loop () =
      match input_line ic with
      | exception End_of_file -> ()
      | line ->
        (match String.rindex_opt line ' ' with
         | Some i ->
           let key = String.sub line 0 i in
           let d = String.sub line (i + 1) (String.length line - i - 1) in
           let ok =
             match Hashtbl.find_opt table key with
             | Some out -> String.equal d (Digest.to_hex (Digest.string out))
             | None -> false
           in
           Tally.record ~key:("golden " ^ key) ok
         | None -> ());
        loop ()
    in
    loop ();
    close_in ic
end

(* Set-ups are spread evenly over the run rather than done back to back
   at its start, so a slow or fast phase of the machine weighs on them
   as it does on the operations. *)
module Schedule = struct
  type t = {
    t0 : float;
    t_end : float;
    seconds : float;
    setups : int;
    mutable done_ : int;
  }

  let create ~seconds ~setups =
    let t0 = now () in
    { t0; t_end = t0 +. seconds; seconds; setups; done_ = 0 }

  let setup_due t =
    t.done_ < t.setups
    && now ()
       >= t.t0
          +. (float_of_int t.done_ *. t.seconds /. float_of_int t.setups)

  let mark_setup t = t.done_ <- t.done_ + 1
  let over t = now () >= t.t_end
end

(* The end-to-end metrics from per-operation times [(start, ms)], set-up
   times [(start, s)] and the wall time of the measured window, with
   every time scaled to the reference machine speed by [speed] (a
   factor at a given instant, see Calib). *)
let end_to_end ~speed ~ops ~setups ~wall ~rss_mb =
  let scaled = Array.of_list (List.map (fun (t, ms) -> ms *. speed t) ops) in
  Array.sort Float.compare scaled;
  let raw_ms = List.fold_left (fun a (_, ms) -> a +. ms) 0.0 ops in
  let scaled_ms = Array.fold_left ( +. ) 0.0 scaled in
  let mean_factor = if raw_ms > 0.0 then scaled_ms /. raw_ms else 1.0 in
  let n = float_of_int (Array.length scaled) in
  Printf.eprintf
    "perfbench: %d operations, mean speed factor %.4f; unscaled p50 %.4f ms, \
     %.4f ops/s\n%!"
    (Array.length scaled) mean_factor
    (median_of (List.map snd ops))
    (n /. wall);
  [
    ("setup_s", "s", median_of (List.map (fun (t, s) -> s *. speed t) setups));
    ("op_ms_p50", "ms", percentile scaled 0.5);
    ("op_ms_p90", "ms", percentile scaled 0.9);
    ("ops_per_s", "1/s", n /. wall /. mean_factor);
    ("peak_rss_mb", "MB", rss_mb);
  ]

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_result ~metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit_, v) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
             (json_float v) unit_)
         metrics)
  in
  let attempted = max 1 !Tally.attempted in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!Tally.failed = 0 && !Tally.attempted > 0)
    attempted !Tally.failed body
