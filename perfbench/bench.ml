(* The benchmark's measuring process.  [run.py] starts one process per
   repetition, so each measures one workload alone (peak memory
   included) and prints one JSON object on its last line:

     bench.exe run WORKLOAD SEED [--trace] [--cps] [--full-check] [--spans FILE]
     bench.exe ladder

   [run] times setup, [Driver.run] and the correctness check, and reports
   the run's outcome (digest, ops, events, cycles) for run.py to compare
   against the reference, plus exact simulated counts at the horizon.
   [--trace] adds spans around every call into a layer and GC phases
   from the runtime's event ring; [--cps] runs the reference thread
   engine; [--full-check] adds the whole-table checks; [--spans] writes
   the spans out.  [ladder] runs the call-shape ladder. *)

open Cm_engine
open Cm_machine
module Driver = Cm_workload.Driver
module Metrics = Cm_workload.Metrics

let secs ns = float ns /. 1e9

(* JSON output: [fields] are (name, already-rendered value). *)
let num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"
let int = string_of_int
let str s = Printf.sprintf "%S" s
let obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"

(* Per-operation latency stamps of the traced run, taken by the
   benchmark with [Machine.now] at issue and at completion. *)
type stamps = { mutable lat : int array; mutable n : int }

let record st v =
  if st.n = Array.length st.lat then st.lat <- Array.append st.lat (Array.make st.n 0);
  st.lat.(st.n) <- v;
  st.n <- st.n + 1

(* The traced request: an issue span around the synchronous call into
   the app (up to its first suspension) and a completion span around the
   driver's continuation; the completion continuation is built once per
   requester, as the driver passes the same [k] every time. *)
let traced_request tr machine st ~in_window base i =
  let req = base i in
  let issued = ref 0 in
  let cached = ref None in
  fun c k ->
    let k' =
      match !cached with
      | Some (k0, f) when k0 == k -> f
      | _ ->
        let f () =
          let now = Machine.now machine in
          if in_window now then record st (now - !issued);
          let s = Tracing.open_ tr Tracing.complete in
          k ();
          Tracing.close tr s
        in
        cached := Some (k, f);
        f
    in
    issued := Machine.now machine;
    let s = Tracing.open_ tr Tracing.issue in
    req c k';
    Tracing.close tr s

(* Exact simulated counts over [Driver.run] (run-window deltas) or at
   the horizon (totals); identical with tracing on and off. *)
type snap = { events : int; messages : int; counters : (string * int) list }

let snap m =
  {
    events = Machine.events_fired m;
    messages = Network.total_messages m.Machine.net;
    counters = Stats.counters m.Machine.stats;
  }

let delta a b name =
  let get s = Option.value ~default:0 (List.assoc_opt name s.counters) in
  get b - get a

let exact_counts m (metrics : Metrics.t) before after =
  let now = Machine.now m in
  let utils =
    Array.init (Machine.n_procs m) (fun p -> Processor.utilization (Machine.proc m p) ~now)
  in
  let delivered =
    List.fold_left
      (fun acc (name, v) -> if String.ends_with ~suffix:".delivered" name then acc + v else acc)
      0
      (Stats.counters (Transport.stats (Machine.transport m)))
  in
  let d = delta before after in
  let ops = float metrics.ops in
  let total name = Stats.get m.Machine.stats name in
  [
    ("sim.events", int (after.events - before.events));
    ("sim.ops", int metrics.ops);
    ("sim.events_per_op", num (float (after.events - before.events) /. ops));
    ("sim.throughput", num metrics.throughput);
    ("network.messages_per_op", num (float metrics.messages /. ops));
    ("network.words_per_op", num (float metrics.words /. ops));
    ("transport.delivered", int delivered);
    ("runtime.migrations", int (total "rt.migrations"));
    ("runtime.rpc_calls", int (total "rt.rpc_calls"));
    ("runtime.local_calls", int (total "rt.local_calls"));
    ("memory.cache_hit_rate", num metrics.cache_hit_rate);
    ("memory.cache_misses", int (total "cache.misses"));
    ("processor.max_util", num (Array.fold_left Float.max 0. utils));
    ("processor.mean_util", num (Array.fold_left ( +. ) 0. utils /. float (Array.length utils)));
    (* Counts over the whole [Driver.run], for the ladder attribution. *)
    ("count.messages", int (after.messages - before.messages));
    ("count.rpc_calls", int (d "rt.rpc_calls"));
    ("count.migrations", int (d "rt.migrations"));
    ("count.scope_returns", int (d "rt.scope_returns"));
    ("count.local_calls", int (d "rt.local_calls"));
    ("count.cache_hits", int (d "cache.hits"));
    ("count.read_misses", int (d "coh.read_miss"));
    ("count.write_misses", int (d "coh.write_miss"));
    ("count.upgrades", int (d "coh.upgrades"));
  ]

let gc_counts (g0 : Gc.stat) (g1 : Gc.stat) ops =
  let per_op x = num (x /. float ops) in
  [
    ("gc.minor_words_per_op", per_op (g1.minor_words -. g0.minor_words));
    ("gc.promoted_words_per_op", per_op (g1.promoted_words -. g0.promoted_words));
    ("gc.minor_collections", int (g1.minor_collections - g0.minor_collections));
    ("gc.major_collections", int (g1.major_collections - g0.major_collections));
    ("gc.top_heap_mb", num (float (g1.top_heap_words * (Sys.word_size / 8)) /. 1048576.));
  ]

let percentile sorted n q =
  if n = 0 then 0 else sorted.(min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1))

let run_workload ~name ~seed ~trace ~cps ~full ~spans_out =
  let engine = if cps then Machine.Cps else Machine.Frames in
  let tr = Tracing.create () in
  let gc = if trace then Some (Tracing.gc_start ()) else None in
  let poll () = Option.iter Tracing.gc_poll gc in
  let t0 = Tracing.now_ns () in
  let span =
    if not trace then Workloads.untraced
    else
      {
        Workloads.span =
          (fun phase f ->
            let id =
              match phase with
              | Workloads.Machine_phase -> Tracing.setup_machine
              | Apps_phase -> Tracing.setup_apps
              | Preload_phase -> Tracing.setup_preload
            in
            Tracing.within tr id f);
      }
  in
  let setup_span = Tracing.open_ tr Tracing.setup in
  let w = Workloads.setup name ~seed ~engine span in
  Tracing.close tr setup_span;
  let t1 = Tracing.now_ns () in
  poll ();
  let st = { lat = Array.make 4096 0; n = 0 } in
  let in_driver = ref true in
  let in_window now = !in_driver && now >= w.spec.warmup in
  let request =
    if trace then traced_request tr w.machine st ~in_window w.request else w.request
  in
  let before = snap w.machine in
  let g0 = Gc.quick_stat () in
  let t2 = Tracing.now_ns () in
  let driver_span = Tracing.open_ tr Tracing.driver_run in
  let metrics = Driver.run w.machine w.spec request in
  Tracing.close tr driver_span;
  let t3 = Tracing.now_ns () in
  in_driver := false;
  let g1 = Gc.quick_stat () in
  let after = snap w.machine in
  let exact = exact_counts w.machine metrics before after in
  let check_span = Tracing.open_ tr Tracing.check in
  Workloads.drain w;
  let verdict = w.check ~full in
  Tracing.close tr check_span;
  let t4 = Tracing.now_ns () in
  poll ();
  let verdict =
    match verdict with
    | Error _ -> verdict
    | Ok () when not trace -> verdict
    | Ok () ->
      (* The benchmark's own stamps must see the driver's window. *)
      let sum = ref 0 in
      for i = 0 to st.n - 1 do
        sum := !sum + st.lat.(i)
      done;
      if st.n <> metrics.ops then
        Error (Printf.sprintf "traced ops %d <> driver ops %d" st.n metrics.ops)
      else if st.n > 0 && float !sum /. float st.n <> metrics.mean_latency then
        Error "traced mean latency differs from the driver's"
      else Ok ()
  in
  let outcome =
    [
      ("workload", str name);
      ("seed", int seed);
      ("engine", str (Machine.engine_name engine));
      ("ok", if Result.is_ok verdict then "true" else "false");
      ("why", str (match verdict with Ok () -> "" | Error e -> e));
      ("digest", str (Machine.digest w.machine));
      ("ops", int metrics.ops);
      ("events", int (after.events - before.events));
      ("cycles", int (Machine.now w.machine));
      ("wall_s", num (secs (t4 - t0)));
      ("setup_s", num (secs (t1 - t0)));
      ("run_s", num (secs (t3 - t2)));
      ("check_s", num (secs (t4 - t3)));
      ("model", str (w.model metrics));
      ("exact", obj exact);
      ("gc", obj (gc_counts g0 g1 metrics.ops));
    ]
  in
  let traced =
    match gc with
    | None -> []
    | Some g ->
      let gci = Tracing.gc_intervals g in
      let self = Tracing.self_ns tr gci in
      let total name = Tracing.sum_named tr name (Tracing.duration tr) in
      let gc_in name =
        Tracing.sum_named tr name (fun i ->
            Tracing.gc_within gci tr.start.(i) tr.stop.(i))
      in
      let self_of name = Tracing.sum_named tr name (fun i -> self.(i)) in
      let driver_ns = total Tracing.driver_run and run_gc = gc_in Tracing.driver_run in
      let issue_ns = self_of Tracing.issue and complete_ns = self_of Tracing.complete in
      let lat = Array.sub st.lat 0 st.n in
      Array.sort Int.compare lat;
      let p q = int (percentile lat st.n q) in
      Option.iter
        (fun file -> Out_channel.with_open_text file (fun oc -> Tracing.write tr oc))
        spans_out;
      [
        ( "trace",
          obj
            [
              ("setup.machine_s", num (secs (total Tracing.setup_machine)));
              ("setup.apps_s", num (secs (total Tracing.setup_apps)));
              ("setup.preload_s", num (secs (total Tracing.setup_preload)));
              ("setup.gc_s", num (secs (gc_in Tracing.setup)));
              ("run.driver_s", num (secs driver_ns));
              ("run.issue_s", num (secs issue_ns));
              ("run.issues", int (Array.length (Tracing.spans_named tr Tracing.issue)));
              ("run.complete_s", num (secs complete_ns));
              ("run.gc_s", num (secs run_gc));
              ( "run.loop_self_s",
                num (secs (driver_ns - issue_ns - complete_ns - run_gc)) );
              ("sim.latency_mean_cyc", num metrics.mean_latency);
              ("sim.latency_p50_cyc", p 0.50);
              ("sim.latency_p99_cyc", p 0.99);
              ("sim.latency_max_cyc", int metrics.max_latency);
              ("trace.lost_gc_events", int (Tracing.gc_lost g));
            ] );
      ]
  in
  print_endline (obj (outcome @ traced))

let ladder () =
  let rungs = Ladder.run () in
  List.iter
    (fun (name, (r : Ladder.result)) ->
      Printf.printf "rung %-18s %10.1f ns/op %8.2f events/op %6.2f msgs/op\n" name r.ns
        r.events_per_op r.msgs_per_op)
    rungs;
  print_endline
    (obj
       (List.map
          (fun (name, (r : Ladder.result)) ->
            ( name,
              obj
                [
                  ("ns", num r.ns);
                  ("events_per_op", num r.events_per_op);
                  ("msgs_per_op", num r.msgs_per_op);
                ] ))
          rungs))

let usage () =
  prerr_endline
    "usage: bench.exe run WORKLOAD SEED [--trace] [--cps] [--full-check] [--spans FILE]\n\
    \       bench.exe ladder";
  exit 2

let () =
  match Array.to_list Sys.argv |> List.tl with
  | "run" :: name :: seed :: flags when List.mem name Workloads.names ->
    let seed = match int_of_string_opt seed with Some s -> s | None -> usage () in
    let rec spans = function
      | "--spans" :: f :: _ -> Some f
      | _ :: rest -> spans rest
      | [] -> None
    in
    run_workload ~name ~seed ~trace:(List.mem "--trace" flags) ~cps:(List.mem "--cps" flags)
      ~full:(List.mem "--full-check" flags) ~spans_out:(spans flags)
  | [ "ladder" ] -> ladder ()
  | _ -> usage ()
