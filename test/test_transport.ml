(* Tests for the unified message transport.

   The central property is digest-equivalence: a Transport round trip
   must charge exactly the cycles, schedule exactly the events, and
   touch exactly the statistics of the hand-rolled
   send-pipeline/Network/spawn/recv-pipeline code it replaced.  The old
   code is kept here, verbatim, as the oracle (tests are outside the
   raw-send lint's scope, so the raw Network calls below are legal).

   The second half covers fault injection: seed-determinism, drop /
   duplicate semantics, delivery accounting, and the
   [check_all_delivered] sanitizer. *)

open Cm_engine
open Cm_machine
open Thread.Infix

let costs = Costs.software

let machine () = Machine.create ~seed:11 ~n_procs:8 ~costs ()

(* ------------------------------------------------------------------ *)
(* Oracle: the hand-rolled pipelines the transport replaced            *)
(* ------------------------------------------------------------------ *)

(* Verbatim shape of the pre-transport Runtime.rpc_call (without the
   runtime's own counters). *)
let oracle_rpc m ~dst ~args_words ~result_words body =
  let c = m.Machine.costs and net = m.Machine.net in
  let rpc_k = Network.kind net "rpc" and reply_k = Network.kind net "rpc_reply" in
  let* caller = Thread.proc in
  let caller_id = Processor.id caller in
  let* () = Thread.compute (Costs.send_pipeline c ~words:args_words) in
  let* r =
    Thread.await (fun ~resume ->
        let (_ : int) =
          Network.send_k net ~src:caller_id ~dst ~words:args_words ~kind:rpc_k (fun () ->
              Machine.spawn m ~on:dst
                (let* () =
                   Thread.compute (Costs.recv_pipeline c ~words:args_words ~new_thread:true)
                 in
                 let* r = body in
                 let* here = Thread.proc in
                 let* () = Thread.compute (Costs.send_pipeline c ~words:result_words) in
                 fun _ctx k ->
                   let (_ : int) =
                     Network.send_k net ~src:(Processor.id here) ~dst:caller_id
                       ~words:result_words ~kind:reply_k (fun () -> resume r)
                   in
                   k ()))
        in
        ())
  in
  let* () = Thread.compute (Costs.recv_pipeline c ~words:result_words ~new_thread:false) in
  Thread.return r

(* Verbatim shape of the pre-transport Runtime.migrate_call. *)
let oracle_hop m ~dst ~words =
  let c = m.Machine.costs in
  let* () = Thread.compute (Costs.send_pipeline c ~words) in
  Thread.travel_k ~net:m.Machine.net ~dst:(Machine.proc m dst) ~words
    ~kind:(Network.kind m.Machine.net "migrate")
    ~recv_work:(Costs.recv_pipeline c ~words ~new_thread:true)

(* Verbatim shape of the pre-transport one-way push (Replicate.push_to /
   Btree_msg.register_remote). *)
let oracle_post m ~dst ~words ~work : unit Thread.t =
  let c = m.Machine.costs in
  let* () = Thread.compute (Costs.send_pipeline c ~words) in
  fun _ctx k ->
    let (_ : int) =
      Network.send_k m.Machine.net ~src:0 ~dst ~words
        ~kind:(Network.kind m.Machine.net "oneway")
        (fun () ->
          Machine.spawn m ~on:dst
            (let* () = Thread.compute (Costs.recv_pipeline c ~words ~new_thread:true) in
             Thread.compute work))
    in
    k ()

(* ------------------------------------------------------------------ *)
(* Digest-equivalence property                                        *)
(* ------------------------------------------------------------------ *)

type op =
  | Rpc of int * int * int * int  (* dst, args_words, result_words, work *)
  | Hop of int * int * int  (* dst, words, work *)
  | Post of int * int * int  (* dst, words, work *)

let run_oracle ops =
  let m = machine () in
  Machine.spawn m ~on:0
    (Thread.iter_list
       (function
         | Rpc (dst, args_words, result_words, work) ->
           Thread.ignore_m
             (oracle_rpc m ~dst ~args_words ~result_words
                (let* () = Thread.compute work in
                 Thread.return work))
         | Hop (dst, words, work) ->
           (* hop out, work, hop back home so the next op matches *)
           let* () = oracle_hop m ~dst ~words in
           let* () = Thread.compute work in
           oracle_hop m ~dst:0 ~words
         | Post (dst, words, work) -> oracle_post m ~dst ~words ~work)
       ops);
  Machine.run m;
  Machine.digest m

let run_transport ops =
  let m = machine () in
  let tp = Machine.transport m in
  let rpc_k = Transport.kind tp "rpc" in
  Transport.Endpoint.register_all tp ~kind:rpc_k (fun server -> server);
  let reply_k = Transport.kind tp "rpc_reply" in
  let migrate_k = Transport.kind tp "migrate" in
  let oneway_k = Transport.kind tp "oneway" in
  Transport.Endpoint.register_all tp ~kind:oneway_k (fun work -> Thread.compute work);
  Machine.spawn m ~on:0
    (Thread.iter_list
       (function
         | Rpc (dst, args_words, result_words, work) ->
           Thread.ignore_m
             (Transport.call tp ~req:rpc_k ~reply:reply_k ~dst ~args_words ~result_words
                (let* () = Thread.compute work in
                 Thread.return work))
         | Hop (dst, words, work) ->
           let* () =
             Transport.migrate tp migrate_k ~dst:(Machine.proc m dst) ~words ~fresh:true
           in
           let* () = Thread.compute work in
           Transport.migrate tp migrate_k ~dst:(Machine.proc m 0) ~words ~fresh:true
         | Post (dst, words, work) -> Transport.post tp oneway_k ~dst ~words work)
       ops);
  Machine.run m;
  let digest = Machine.digest m in
  Alcotest.(check int) "transport run fully drained" 0 (Transport.inflight_total tp);
  Transport.check_all_delivered tp;
  digest

let op_gen =
  QCheck.Gen.(
    let dst = int_range 1 7 in
    oneof
      [
        map (fun (d, a, r, w) -> Rpc (d, a, r, w))
          (quad dst (int_range 0 64) (int_range 1 32) (int_range 0 400));
        map (fun (d, words, w) -> Hop (d, words, w))
          (triple dst (int_range 0 64) (int_range 0 400));
        map (fun (d, words, w) -> Post (d, words, w))
          (triple dst (int_range 0 64) (int_range 0 400));
      ])

let op_print = function
  | Rpc (d, a, r, w) -> Printf.sprintf "Rpc(dst=%d,args=%d,result=%d,work=%d)" d a r w
  | Hop (d, words, w) -> Printf.sprintf "Hop(dst=%d,words=%d,work=%d)" d words w
  | Post (d, words, w) -> Printf.sprintf "Post(dst=%d,words=%d,work=%d)" d words w

let prop_digest_equivalence =
  QCheck.Test.make
    ~name:"transport round trips charge cycles identical to the hand-rolled pipeline"
    ~count:40
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map op_print ops))
       QCheck.Gen.(list_size (int_range 1 6) op_gen))
    (fun ops -> String.equal (run_oracle ops) (run_transport ops))

(* ------------------------------------------------------------------ *)
(* Fault injection                                                    *)
(* ------------------------------------------------------------------ *)

let flaky_spec =
  { Transport.drop = 0.3; duplicate = 0.2; delay = 0.15; delay_cycles = 200 }

(* Post [n] messages round-robin under the given fault config; returns
   the machine digest and the accounting for the kind. *)
let run_flaky ~seed ~spec ~n () =
  let m = machine () in
  let tp = Machine.transport m in
  let k = Transport.kind tp "flaky" in
  let handled = ref 0 in
  Transport.Endpoint.register_all tp ~kind:k (fun () ->
      incr handled;
      Thread.compute 50);
  Transport.configure_faults tp ~seed [ ("flaky", spec) ];
  Machine.spawn m ~on:0
    (Thread.repeat n (fun i ->
         let* () = Transport.post tp k ~dst:(1 + (i mod 7)) ~words:16 () in
         Thread.sleep 100));
  Machine.run m;
  ( Machine.digest m,
    Transport.posted tp "flaky",
    Transport.delivered tp "flaky",
    Transport.dropped tp "flaky",
    !handled,
    tp )

let test_fault_determinism () =
  let d1, p1, del1, drop1, h1, _ = run_flaky ~seed:7 ~spec:flaky_spec ~n:60 () in
  let d2, p2, del2, drop2, h2, _ = run_flaky ~seed:7 ~spec:flaky_spec ~n:60 () in
  Alcotest.(check string) "same seed, same digest" d1 d2;
  Alcotest.(check int) "same posted" p1 p2;
  Alcotest.(check int) "same delivered" del1 del2;
  Alcotest.(check int) "same drops" drop1 drop2;
  Alcotest.(check int) "same handler runs" h1 h2;
  Alcotest.(check int) "all 60 posted" 60 p1;
  Alcotest.(check bool) "some drops happened" true (drop1 > 0);
  Alcotest.(check bool) "some deliveries happened" true (del1 > 0)

let test_faults_off_is_baseline () =
  (* No fault config: the digest matches a run with the no-op config —
     arming the machinery with zero probabilities draws no randomness
     and schedules nothing extra. *)
  let d_off, _, _, _, _, _ = run_flaky ~seed:1 ~spec:Transport.no_fault ~n:20 () in
  let run_clean () =
    let m = machine () in
    let tp = Machine.transport m in
    let k = Transport.kind tp "flaky" in
    Transport.Endpoint.register_all tp ~kind:k (fun () -> Thread.compute 50);
    Machine.spawn m ~on:0
      (Thread.repeat 20 (fun i ->
           let* () = Transport.post tp k ~dst:(1 + (i mod 7)) ~words:16 () in
           Thread.sleep 100));
    Machine.run m;
    Machine.digest m
  in
  Alcotest.(check string) "zero-probability faults change nothing" (run_clean ()) d_off

let test_drop_all () =
  let _, posted, delivered, dropped, handled, tp =
    run_flaky ~seed:3
      ~spec:{ Transport.no_fault with drop = 1.0 }
      ~n:10 ()
  in
  Alcotest.(check int) "all posted" 10 posted;
  Alcotest.(check int) "all dropped" 10 dropped;
  Alcotest.(check int) "none delivered" 0 delivered;
  Alcotest.(check int) "handler never ran" 0 handled;
  (* Dropped messages are accounted for: the sanitizer stays silent. *)
  Transport.check_all_delivered tp;
  Alcotest.(check int) "nothing in flight" 0 (Transport.inflight_total tp)

let test_duplicate_all () =
  let _, posted, delivered, _, handled, tp =
    run_flaky ~seed:5
      ~spec:{ Transport.no_fault with duplicate = 1.0 }
      ~n:10 ()
  in
  Alcotest.(check int) "all posted" 10 posted;
  Alcotest.(check int) "each delivered twice" 20 delivered;
  Alcotest.(check int) "handler ran twice per post" 20 handled;
  Transport.check_all_delivered tp;
  Alcotest.(check int) "nothing in flight" 0 (Transport.inflight_total tp)

let test_delay_all () =
  let _, posted, delivered, _, handled, tp =
    run_flaky ~seed:9
      ~spec:{ Transport.no_fault with delay = 1.0; delay_cycles = 500 }
      ~n:10 ()
  in
  Alcotest.(check int) "all posted" 10 posted;
  Alcotest.(check int) "all delivered despite the delay leg" 10 delivered;
  Alcotest.(check int) "handler ran for each" 10 handled;
  Transport.check_all_delivered tp;
  Alcotest.(check int) "nothing in flight" 0 (Transport.inflight_total tp)

let test_cancel_pending_delays () =
  (* Deliveries stuck in the fault-delay stage are cancellable timers:
     revoking them counts the messages as dropped, so the in-flight
     account closes without them ever arriving. *)
  let m = machine () in
  let tp = Machine.transport m in
  let k = Transport.kind tp "flaky" in
  let handled = ref 0 in
  Transport.Endpoint.register_all tp ~kind:k (fun () ->
      incr handled;
      Thread.return ());
  Transport.configure_faults tp ~seed:13
    [ ("flaky", { Transport.no_fault with delay = 1.0; delay_cycles = 1_000_000 }) ];
  Machine.spawn m ~on:0 (Thread.repeat 5 (fun i -> Transport.post tp k ~dst:(1 + i) ~words:8 ()));
  (* Far enough for every wire hop to land (arming the delay timers),
     far before any timer expires. *)
  Machine.run ~until:5_000 m;
  Alcotest.(check int) "all posted" 5 (Transport.posted tp "flaky");
  Alcotest.(check int) "all stuck in the delay stage" 5 (Transport.inflight tp "flaky");
  Alcotest.(check int) "five delays pending" 5 (Transport.pending_delays tp);
  Alcotest.(check int) "five timers revoked" 5 (Transport.cancel_pending_delays tp);
  Alcotest.(check int) "no delay pending after the sweep" 0 (Transport.pending_delays tp);
  Alcotest.(check int) "revoked deliveries count as dropped" 5 (Transport.dropped tp "flaky");
  Transport.check_all_delivered tp;
  Alcotest.(check int) "nothing in flight" 0 (Transport.inflight_total tp);
  (* Draining the simulator delivers nothing: the events are gone. *)
  Machine.run m;
  Alcotest.(check int) "no handler ever ran" 0 !handled;
  Alcotest.(check int) "second sweep finds nothing" 0 (Transport.cancel_pending_delays tp)

(* A delayed delivery's bookkeeping ends when its timer fires: after a
   drained run of RPCs whose requests and replies all took the delay
   leg, nothing is pending and a sweep has nothing to revoke. *)
let test_delayed_rpc_drains () =
  let m = machine () in
  let tp = Machine.transport m in
  let req = Transport.kind tp "req" and reply = Transport.kind tp "rep" in
  Transport.Endpoint.register_all tp ~kind:req (fun m -> m);
  let delay = { Transport.no_fault with delay = 1.0; delay_cycles = 300 } in
  Transport.configure_faults tp ~seed:5 [ ("req", delay); ("rep", delay) ];
  let sum = ref 0 in
  Machine.spawn m ~on:0
    (Thread.repeat 10 (fun i ->
         let* v =
           Transport.call tp ~req ~reply ~dst:(1 + (i mod 7)) ~args_words:4 ~result_words:2
             (Thread.return i)
         in
         sum := !sum + v;
         Thread.return ()));
  Machine.run m;
  Alcotest.(check int) "every call returned" 45 !sum;
  Transport.check_all_delivered tp;
  Alcotest.(check int) "no delay pending" 0 (Transport.pending_delays tp);
  Alcotest.(check int) "nothing to revoke" 0 (Transport.cancel_pending_delays tp)

(* A reply is stamped with the suspension it answers.  Two replies to
   one suspension: the first resumes the thread, the second is stale —
   counted and dropped under fault injection, on either engine, and a
   failure when no faults are armed (nothing could have duplicated it). *)
let double_reply ~engine ~armed =
  let m = Machine.create ~seed:11 ~engine ~n_procs:8 ~costs () in
  let tp = Machine.transport m in
  let k = Transport.kind tp "answer" in
  if armed then Transport.configure_faults tp ~seed:1 [ ("answer", Transport.no_fault) ];
  let got = ref [] in
  Machine.spawn m ~on:0 (fun c kont ->
      let gen = Thread.Frame.gen c in
      Thread.await
        (fun ~resume ->
          Machine.spawn m ~on:3
            (let* () = Transport.notify_reply tp k ~dst:0 ~words:2 ~ctx:c ~gen resume 1 in
             Transport.notify_reply tp k ~dst:0 ~words:2 ~ctx:c ~gen resume 2))
        c
        (fun v ->
          got := v :: !got;
          kont ()));
  Machine.run m;
  (!got, Transport.stale tp "answer", tp)

let test_stale_reply () =
  List.iter
    (fun engine ->
      let got, stale, tp = double_reply ~engine ~armed:true in
      Alcotest.(check (list int)) "first reply resumes, once" [ 1 ] got;
      Alcotest.(check int) "second reply stale" 1 stale;
      Transport.check_all_delivered tp;
      match double_reply ~engine ~armed:false with
      | _ -> Alcotest.fail "stale reply without faults went unnoticed"
      | exception Failure _ -> ())
    [ Machine.Frames; Machine.Cps ]

let test_sanitizer_catches_lost_message () =
  (* Stop the run before the message can arrive: it is posted, not
     dropped, and never delivered — exactly what the sanitizer exists to
     catch (a transport bug would look the same after a drained run). *)
  let m = machine () in
  let tp = Machine.transport m in
  let k = Transport.kind tp "flaky" in
  Transport.signal tp k ~src:0 ~dst:5 ~words:16 (fun () -> ());
  Machine.run ~until:1 m;
  Alcotest.(check int) "message still in flight" 1 (Transport.inflight tp "flaky");
  match Transport.check_all_delivered tp with
  | () -> Alcotest.fail "lost message not reported"
  | exception Check.Violation _ -> ()

let test_endpoint_counters () =
  let m = machine () in
  let tp = Machine.transport m in
  let k = Transport.kind tp "counted" in
  Transport.Endpoint.register_all tp ~kind:k (fun () -> Thread.return ());
  Machine.spawn m ~on:0
    (let* () = Transport.post tp k ~dst:3 ~words:4 () in
     let* () = Transport.post tp k ~dst:3 ~words:4 () in
     Transport.post tp k ~dst:6 ~words:4 ());
  Machine.run m;
  Alcotest.(check int) "proc 3 delivered" 2 (Transport.Endpoint.delivered ~kind:k ~proc:3);
  Alcotest.(check int) "proc 6 delivered" 1 (Transport.Endpoint.delivered ~kind:k ~proc:6);
  Alcotest.(check int) "proc 1 delivered" 0 (Transport.Endpoint.delivered ~kind:k ~proc:1);
  Alcotest.(check int) "kind delivered" 3 (Transport.delivered tp "counted")

let test_unregistered_endpoint_raises () =
  let m = machine () in
  let tp = Machine.transport m in
  let k = Transport.kind tp "nobody_home" in
  Transport.Endpoint.register tp ~proc:1 ~kind:k (fun () -> Thread.return ());
  Machine.spawn m ~on:0 (Transport.post tp k ~dst:2 ~words:4 ());
  match Machine.run m with
  | () -> Alcotest.fail "delivery to an unregistered endpoint did not raise"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "cm_transport"
    [
      ( "oracle",
        List.map QCheck_alcotest.to_alcotest [ prop_digest_equivalence ] );
      ( "faults",
        [
          Alcotest.test_case "same seed, same faults" `Quick test_fault_determinism;
          Alcotest.test_case "zero-probability config is free" `Quick
            test_faults_off_is_baseline;
          Alcotest.test_case "drop everything" `Quick test_drop_all;
          Alcotest.test_case "duplicate everything" `Quick test_duplicate_all;
          Alcotest.test_case "delay everything" `Quick test_delay_all;
          Alcotest.test_case "cancel pending delays" `Quick test_cancel_pending_delays;
          Alcotest.test_case "delayed RPCs leave no pending delay" `Quick
            test_delayed_rpc_drains;
          Alcotest.test_case "stale reply dropped or fatal" `Quick test_stale_reply;
          Alcotest.test_case "sanitizer catches a lost message" `Quick
            test_sanitizer_catches_lost_message;
        ] );
      ( "endpoints",
        [
          Alcotest.test_case "per-endpoint delivery counters" `Quick test_endpoint_counters;
          Alcotest.test_case "unregistered endpoint raises" `Quick
            test_unregistered_endpoint_raises;
        ] );
    ]
