(* Machine-speed calibration.

   The 2-vCPU virtual machine this benchmark was tuned on changes speed
   by 15-25 % in phases lasting seconds to minutes (memory-bound code
   slows; a pure arithmetic loop does not), so raw times of identical
   runs disagree by more than any useful bound. A fixed reference computation that shares
   no code with the program is therefore timed every 100 ms throughout
   the measured window, and every time the benchmark reports is scaled
   to a reference machine speed by the calibration's median in the same
   2-second bucket:

     reported = measured * reference_ms / calibration median

   The reference does work of the same kind as the analysis (a map
   promoted to the major heap, hashtable churn, boxed floats, float
   sweeps), so it slows in the same phases by about the same share. It
   shares no code with the program, so a change to the program moves
   only the measured side (it does share the process's garbage
   collector, whose cost per allocated word hardly depends on the
   program's heap). The phases are
   those of the virtual CPU a process runs on: a calibration in another
   process on the other CPU does not follow them. So run.py keeps the
   benchmark and the daemon it starts on one CPU, and the calibration
   runs in the benchmark process: between operations of the in-process
   workloads, and while serve-mix waits for replies. It is kept under a
   millisecond, short enough that the scheduler runs it at once when
   it wakes beside a busy daemon instead of sharing the CPU with it (a
   5 ms calibration there timed the contention, not the machine). The
   unscaled figures and the run's mean speed factor are printed on
   stderr. *)

module IM = Map.Make (Int)

(* Median calibration time on the 2-vCPU virtual machine the benchmark
   was tuned on: the reference speed. *)
let reference_ms = 0.45

let work () =
  let m = ref IM.empty in
  for i = 0 to 1199 do
    m := IM.add ((i * 2654435761) land 0xfffff) (float_of_int i) !m
  done;
  let h = Hashtbl.create 16 in
  IM.iter (fun k v -> Hashtbl.replace h (k land 4095, k) (v *. 1.5)) !m;
  let s = ref 0.0 in
  Hashtbl.iter (fun _ v -> s := !s +. v) h;
  let a = Array.init 4096 float_of_int in
  for i = 1 to 4094 do
    a.(i) <- Float.max a.(i) (0.5 *. (a.(i - 1) +. a.(i + 1)))
  done;
  !s +. a.(7)

let interval_s = 0.1
let bucket_s = 2.0
let t0 = ref 0.0
let last = ref neg_infinity
let samples : (float * float) list ref = ref []
let spent_s = ref 0.0

let start () =
  t0 := Util.now ();
  last := neg_infinity;
  samples := [];
  spent_s := 0.0

(* Time one calibration when one is due. *)
let tick () =
  let t = Util.now () in
  if t -. !last >= interval_s then begin
    last := t;
    let _, ms = Util.timed (fun () -> ignore (Sys.opaque_identity (work ()))) in
    samples := (t, ms) :: !samples;
    spent_s := !spent_s +. (ms /. 1000.0)
  end

(* Per-bucket medians of the run's calibrations, as a speed factor at a
   given instant. A bucket with too few samples falls back to the run's
   median. *)
let factors () =
  let bucket t = int_of_float ((t -. !t0) /. bucket_s) in
  let by = Hashtbl.create 64 in
  List.iter
    (fun (t, ms) ->
      let b = bucket t in
      Hashtbl.replace by b (ms :: Option.value ~default:[] (Hashtbl.find_opt by b)))
    !samples;
  let overall = Util.median_of (List.map snd !samples) in
  fun t ->
    let m =
      match Hashtbl.find_opt by (bucket t) with
      | Some l when List.length l >= 5 -> Util.median_of l
      | _ -> overall
    in
    if Float.is_finite m && m > 0.0 then reference_ms /. m else 1.0
