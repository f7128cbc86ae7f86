(* Tests for the distributed hash table, including the adaptive
   mechanism selection it showcases. *)

open Cm_machine
open Cm_apps
open Thread.Infix

let env ?(n = 12) () = Sysenv.make (Machine.create ~seed:23 ~n_procs:n ~costs:Costs.software ())

let node_procs = Array.init 6 (fun i -> i)

let all_modes =
  [
    ("rpc", Dht.Messaging Cm_core.Prelude.Rpc);
    ("migrate", Dht.Messaging Cm_core.Prelude.Migrate);
    ("adaptive", Dht.Adaptive);
    ("shared_memory", Dht.Shared_memory);
  ]

let run_thread ?(on = 8) e body =
  let finished = ref false in
  Machine.spawn e.Sysenv.machine ~on ~on_exit:(fun () -> finished := true) body;
  Machine.run e.Sysenv.machine;
  Alcotest.(check bool) "thread finished" true !finished

let test_put_get_roundtrip () =
  List.iter
    (fun (name, mode) ->
      let e = env () in
      let table = Dht.create e ~buckets:16 ~mode ~node_procs () in
      let results = ref [] in
      run_thread e
        (let* () = Dht.put table ~key:10 ~value:100 in
         let* () = Dht.put table ~key:20 ~value:200 in
         let* () = Dht.put table ~key:10 ~value:111 in
         let* a = Dht.get table 10 in
         let* b = Dht.get table 20 in
         let* c = Dht.get table 30 in
         results := [ a; b; c ];
         Thread.return ());
      Alcotest.(check (list (option int)))
        (name ^ ": get results")
        [ Some 111; Some 200; None ]
        !results;
      Alcotest.(check (list (pair int int)))
        (name ^ ": contents")
        [ (10, 111); (20, 200) ]
        (Dht.contents table))
    all_modes

let test_range_sum () =
  List.iter
    (fun (name, mode) ->
      let e = env () in
      let table = Dht.create e ~buckets:8 ~mode ~node_procs () in
      let keys = List.init 30 (fun i -> i * 7) in
      let total = ref (-1) in
      run_thread e
        (let* () =
           Thread.iter_list (fun k -> Dht.put table ~key:k ~value:k) keys
         in
         let* s = Dht.range_sum table ~first_bucket:0 ~n_buckets:8 in
         total := s;
         Thread.return ());
      Alcotest.(check int)
        (name ^ ": full range sums everything")
        (List.fold_left ( + ) 0 keys)
        !total)
    all_modes

let test_concurrent_puts () =
  List.iter
    (fun (name, mode) ->
      let e = env () in
      let table = Dht.create e ~buckets:32 ~bucket_capacity:128 ~mode ~node_procs () in
      let threads = 4 and per_thread = 25 in
      for th = 0 to threads - 1 do
        Machine.spawn e.Sysenv.machine ~on:(6 + th)
          (Thread.repeat per_thread (fun i ->
               let key = (th * 1000) + i in
               Dht.put table ~key ~value:(key * 2)))
      done;
      Machine.run e.Sysenv.machine;
      Alcotest.(check int) (name ^ ": all entries present") (threads * per_thread)
        (Dht.size table);
      List.iter
        (fun (k, v) -> Alcotest.(check int) (name ^ ": value") (2 * k) v)
        (Dht.contents table))
    all_modes

let test_bucket_full () =
  let e = env () in
  let table = Dht.create e ~buckets:1 ~bucket_capacity:3 ~mode:(Dht.Messaging Cm_core.Prelude.Rpc)
      ~node_procs () in
  let failed = ref false in
  Machine.spawn e.Sysenv.machine ~on:8
    (let* () = Dht.put table ~key:1 ~value:1 in
     let* () = Dht.put table ~key:2 ~value:2 in
     let* () = Dht.put table ~key:3 ~value:3 in
     Dht.put table ~key:4 ~value:4);
  (* The overflow raises inside a simulation event and surfaces from the
     run loop. *)
  (try Machine.run e.Sysenv.machine with Failure _ -> failed := true);
  Alcotest.(check bool) "overflow rejected" true !failed

(* Growth stops at the capacity exactly: a bucket that grew on the way
   (doubling capped at 20 pairs) holds 20 keys and refuses the 21st,
   preloaded or put. *)
let test_bucket_full_after_growth () =
  List.iter
    (fun (name, mode) ->
      let e = env () in
      let table = Dht.create e ~buckets:1 ~bucket_capacity:20 ~mode ~node_procs () in
      for k = 1 to 20 do
        Dht.preload table ~key:k ~value:k
      done;
      Alcotest.(check int) (name ^ ": full") 20 (Dht.size table);
      Alcotest.check_raises (name ^ ": preload refused") (Failure "Dht.preload: bucket full")
        (fun () -> Dht.preload table ~key:21 ~value:21);
      Machine.spawn e.Sysenv.machine ~on:8 (Dht.put table ~key:21 ~value:21);
      Alcotest.check_raises (name ^ ": put refused") (Failure "Dht.put: bucket full") (fun () ->
          Machine.run e.Sysenv.machine))
    [ ("rpc", Dht.Messaging Cm_core.Prelude.Rpc); ("adaptive", Dht.Adaptive) ]

let test_modes_agree () =
  let final (_, mode) =
    let e = env () in
    let table = Dht.create e ~buckets:16 ~mode ~node_procs () in
    run_thread e
      (Thread.repeat 60 (fun i ->
           let key = i * 13 mod 97 in
           Dht.put table ~key ~value:(i * i)));
    Dht.contents table
  in
  match List.map final all_modes with
  | first :: rest ->
    List.iter (fun c -> Alcotest.(check (list (pair int int))) "same contents" first c) rest
  | [] -> ()

let test_adaptive_learns_per_site () =
  let e = env ~n:16 () in
  let table = Dht.create e ~buckets:12 ~mode:Dht.Adaptive ~node_procs () in
  run_thread e
    (let* () =
       Thread.repeat 40 (fun i -> Dht.put table ~key:(i * 3) ~value:i)
     in
     let* () =
       Thread.repeat 40 (fun i -> Thread.ignore_m (Dht.get table (i * 3 mod 120)))
     in
     Thread.repeat 15 (fun _ ->
         Thread.ignore_m (Dht.range_sum table ~first_bucket:0 ~n_buckets:12)));
  List.iter
    (fun (name, estimate, samples) ->
      Alcotest.(check bool) (name ^ " sampled") true (samples > 5);
      match name with
      | "dht.get" | "dht.put" ->
        Alcotest.(check bool) (name ^ " learned isolation") true (estimate < 1.)
      | "dht.range_sum" ->
        Alcotest.(check bool) (name ^ " learned chaining") true (estimate >= 1.)
      | _ -> Alcotest.fail "unexpected site")
    (Dht.adaptive_report table)

let test_adaptive_traffic_between_static_extremes () =
  (* On a point-lookup workload the adaptive table should not send more
     traffic than always-migrate does. *)
  let words mode =
    let e = env () in
    let table = Dht.create e ~buckets:16 ~mode ~node_procs () in
    run_thread e
      (let* () = Thread.repeat 30 (fun i -> Dht.put table ~key:i ~value:i) in
       Thread.repeat 60 (fun i -> Thread.ignore_m (Dht.get table (i mod 30))));
    Network.total_words e.Sysenv.machine.Machine.net
  in
  let rpc = words (Dht.Messaging Cm_core.Prelude.Rpc) in
  let migrate = words (Dht.Messaging Cm_core.Prelude.Migrate) in
  let adaptive = words Dht.Adaptive in
  Alcotest.(check bool)
    (Printf.sprintf "adaptive (%d) <= 1.1 * min(rpc=%d, migrate=%d)" adaptive rpc migrate)
    true
    (float_of_int adaptive <= 1.1 *. float_of_int (min rpc migrate))

let test_sm_gets_use_no_bucket_cpu_after_warm () =
  (* After the lock line and bucket are cached, repeated gets of the
     same key from one requester stop consuming bucket-home CPU. *)
  let e = env () in
  let table = Dht.create e ~buckets:4 ~mode:Dht.Shared_memory ~node_procs:[| 0; 1; 2; 3 |] () in
  run_thread e
    (let* () = Dht.put table ~key:5 ~value:50 in
     Thread.repeat 20 (fun _ -> Thread.ignore_m (Dht.get table 5)));
  for p = 0 to 3 do
    Alcotest.(check int)
      (Printf.sprintf "bucket proc %d unused" p)
      0
      (Processor.busy_cycles (Machine.proc e.Sysenv.machine p))
  done

let test_validation () =
  let e = env () in
  Alcotest.check_raises "no buckets" (Invalid_argument "Dht.create: buckets must be positive")
    (fun () ->
      ignore (Dht.create e ~buckets:0 ~mode:Dht.Shared_memory ~node_procs ()));
  let table = Dht.create e ~buckets:4 ~mode:Dht.Shared_memory ~node_procs () in
  Alcotest.check_raises "empty range" (Invalid_argument "Dht.range_sum: empty range") (fun () ->
      let _ : int Thread.t = Dht.range_sum table ~first_bucket:0 ~n_buckets:0 in
      ())

(* Six requesters insert fresh keys into one bucket that starts small,
   back to back, so requests are in flight across the RPC latency while
   earlier ones double the bucket.  A body that captured the bucket on
   the requester would write into the block growth had already
   replaced, and its key would be lost. *)
let test_growth_under_inflight_puts () =
  let variants =
    [
      ("fused frames", Machine.Frames, Dht.Messaging Cm_core.Prelude.Rpc, true);
      ("unfused", Machine.Frames, Dht.Messaging Cm_core.Prelude.Rpc, false);
      ("adaptive", Machine.Frames, Dht.Adaptive, true);
      ("cps engine", Machine.Cps, Dht.Messaging Cm_core.Prelude.Rpc, true);
    ]
  in
  List.iter
    (fun (name, engine, mode, fused) ->
      let e = Sysenv.make (Machine.create ~seed:23 ~engine ~n_procs:12 ~costs:Costs.software ()) in
      let table = Dht.create e ~buckets:1 ~bucket_capacity:64 ~fused ~mode ~node_procs:[| 0 |] () in
      let requesters = 6 and per_requester = 10 in
      let key r i = (r * 100) + i in
      for r = 0 to requesters - 1 do
        Machine.spawn e.Sysenv.machine ~on:(6 + r)
          (Thread.repeat per_requester (fun i -> Dht.put table ~key:(key r i) ~value:(key r i + 1)))
      done;
      Machine.run e.Sysenv.machine;
      for r = 0 to requesters - 1 do
        for i = 0 to per_requester - 1 do
          Alcotest.(check (option int))
            (Printf.sprintf "%s: key %d" name (key r i))
            (Some (key r i + 1))
            (Dht.peek table (key r i))
        done
      done;
      Alcotest.(check int) (name ^ ": size") (requesters * per_requester) (Dht.size table))
    variants

(* [min_int] hashes to [min_int], which [abs] leaves negative: on a
   table whose size is not a power of two it used to index bucket -4. *)
let test_min_int_key () =
  List.iter
    (fun (name, mode) ->
      let e = env () in
      let table = Dht.create e ~buckets:12 ~mode ~node_procs () in
      let b = Dht.bucket_of_key table min_int in
      Alcotest.(check bool) (name ^ ": bucket in range") true (b >= 0 && b < 12);
      Dht.preload table ~key:min_int ~value:7;
      Alcotest.(check (option int)) (name ^ ": peek") (Some 7) (Dht.peek table min_int);
      let got = ref None in
      run_thread e
        (let* () = Dht.put table ~key:min_int ~value:8 in
         let* v = Dht.get table min_int in
         got := v;
         Thread.return ());
      Alcotest.(check (option int)) (name ^ ": get") (Some 8) !got;
      (* Every other key keeps the bucket it always had. *)
      List.iter
        (fun k ->
          Alcotest.(check int)
            (Printf.sprintf "%s: bucket of %d" name k)
            (abs (k * 2654435761) mod 12)
            (Dht.bucket_of_key table k))
        [ 0; 1; -1; 12345; -98765; max_int; min_int + 1 ])
    all_modes

let test_size_counts_entries () =
  List.iter
    (fun (name, mode) ->
      let e = env () in
      let table = Dht.create e ~buckets:4 ~bucket_capacity:128 ~mode ~node_procs () in
      run_thread e (Thread.repeat 50 (fun i -> Dht.put table ~key:(i * 5 mod 41) ~value:i));
      for k = 100 to 139 do
        Dht.preload table ~key:k ~value:k
      done;
      Alcotest.(check int) (name ^ ": size = |contents|")
        (List.length (Dht.contents table))
        (Dht.size table))
    all_modes

let prop_dht_matches_hashtbl =
  QCheck.Test.make ~name:"dht agrees with Hashtbl (all modes)" ~count:20
    QCheck.(
      pair (int_range 0 3) (list_of_size Gen.(5 -- 60) (triple (int_range 0 40) small_nat bool)))
    (fun (mode_idx, ops) ->
      let _, mode = List.nth all_modes mode_idx in
      let e = env () in
      let table = Dht.create e ~buckets:8 ~bucket_capacity:128 ~mode ~node_procs () in
      let model = Hashtbl.create 16 in
      let ok = ref true in
      run_thread e
        (Thread.iter_list
           (fun (key, value, is_put) ->
             if is_put then begin
               Hashtbl.replace model key value;
               Dht.put table ~key ~value
             end
             else
               let* got = Dht.get table key in
               if got <> Hashtbl.find_opt model key then ok := false;
               Thread.return ())
           ops);
      !ok
      && Dht.contents table
         = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []))

let () =
  Alcotest.run "cm_dht"
    [
      ( "dht",
        [
          Alcotest.test_case "put get roundtrip" `Quick test_put_get_roundtrip;
          Alcotest.test_case "range sum" `Quick test_range_sum;
          Alcotest.test_case "concurrent puts" `Quick test_concurrent_puts;
          Alcotest.test_case "bucket full" `Quick test_bucket_full;
          Alcotest.test_case "bucket full after growth" `Quick test_bucket_full_after_growth;
          Alcotest.test_case "modes agree" `Quick test_modes_agree;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "growth under in-flight puts" `Quick test_growth_under_inflight_puts;
          Alcotest.test_case "min_int key" `Quick test_min_int_key;
          Alcotest.test_case "size counts entries" `Quick test_size_counts_entries;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_dht_matches_hashtbl ] );
      ( "adaptive-dht",
        [
          Alcotest.test_case "learns per site" `Quick test_adaptive_learns_per_site;
          Alcotest.test_case "traffic near best" `Quick test_adaptive_traffic_between_static_extremes;
          Alcotest.test_case "sm warm gets free" `Quick test_sm_gets_use_no_bucket_cpu_after_warm;
        ] );
    ]
