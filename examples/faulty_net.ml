(* Fault injection on the message transport.

   Every remote message in the simulator flows through
   Cm_machine.Transport (typed per-processor endpoints).  Besides the
   uniform send/receive pipelines, the transport can inject faults —
   drop, duplicate, or delay messages with per-kind probabilities —
   drawn from its own seeded generator, so a faulty run is exactly as
   reproducible as a clean one.

   This program posts a stream of "ping" messages across an 8-processor
   machine three times: clean, and twice under the same fault seed
   (same seed => identical fault decisions).  Two runtime workloads
   follow: fused migrations ([Runtime.site_call]) losing some of their
   continuations to dropped "migrate" messages, and RPCs whose requests
   and replies are delayed.  It then shows the delivery sanitizer
   catching a genuinely lost message: every non-dropped post must be
   delivered by the end of the run, and [Transport.check_all_delivered]
   raises when one is still in flight.

   Every run prints its machine digest, so the transcript pins the
   simulated behavior under faults: test/golden/faults.expected is this
   program's output, diffed by [dune runtest].

   Run with:  dune exec examples/faulty_net.exe
*)

open Cm_engine
open Cm_machine
open Cm_runtime
open Thread.Infix

let n_msgs = 200

let flaky =
  { Transport.drop = 0.15; duplicate = 0.05; delay = 0.2; delay_cycles = 400 }

let run ~fault_seed () =
  let machine = Machine.create ~seed:42 ~n_procs:8 ~costs:Costs.software () in
  let tp = Machine.transport machine in
  let ping = Transport.kind tp "ping" in
  let handled = ref 0 in
  Transport.Endpoint.register_all tp ~kind:ping (fun () ->
      incr handled;
      Thread.compute 20);
  (match fault_seed with
  | Some seed -> Transport.configure_faults tp ~seed [ ("ping", flaky) ]
  | None -> ());
  Machine.spawn machine ~on:0
    (Thread.repeat n_msgs (fun i ->
         let* () = Transport.post tp ping ~dst:(1 + (i mod 7)) ~words:8 () in
         Thread.sleep 50));
  Machine.run machine;
  (* The delivery sanitizer: posted = delivered + dropped (duplicates
     accounted), or this raises Check.Violation.  Passing here even
     under faults is the point — drops are *recorded* losses. *)
  Transport.check_all_delivered tp;
  Printf.printf "  posted=%-4d delivered=%-4d dropped=%-3d handler ran %d times\n"
    (Transport.posted tp "ping") (Transport.delivered tp "ping") (Transport.dropped tp "ping")
    !handled;
  Printf.printf "  per endpoint:";
  for p = 0 to 7 do
    Printf.printf " %d" (Transport.Endpoint.delivered ~kind:ping ~proc:p)
  done;
  print_newline ();
  Printf.printf "  digest %s\n" (Machine.digest machine)

(* Four requesters each walk 20 calls over four fused sites homed on
   processors 4..7; consecutive calls have different homes, so every
   call migrates.  A dropped "migrate" message loses the continuation
   with it: that requester stops where its message vanished. *)
let lossy_migrations () =
  let machine = Machine.create ~seed:42 ~n_procs:8 ~costs:Costs.software () in
  let rt = Runtime.create machine in
  let tp = Runtime.transport rt in
  Transport.configure_faults tp ~seed:11 [ ("migrate", { Transport.no_fault with drop = 0.1 }) ];
  let sites =
    Array.init 4 (fun i ->
        Runtime.site rt ~access:Runtime.Migrate ~home:(4 + i) ~args_words:8 ~result_words:2
          (Thread.compute 30))
  in
  let completed = ref 0 in
  for r = 0 to 3 do
    Machine.spawn machine ~on:r
      (Thread.repeat 20 (fun j ->
           let* () = Runtime.site_call sites.((r + j) mod 4) in
           incr completed;
           Thread.return ()))
  done;
  Machine.run machine;
  Transport.check_all_delivered tp;
  Printf.printf "  migrate posted=%d delivered=%d dropped=%d, calls completed %d of 80\n"
    (Transport.posted tp "migrate") (Transport.delivered tp "migrate")
    (Transport.dropped tp "migrate") !completed;
  Printf.printf "  digest %s\n" (Machine.digest machine)

(* Four requesters each make 15 RPCs to processors 4..7 while 30% of
   requests and replies take a 300-cycle detour: every call still
   completes, later. *)
let delayed_rpcs () =
  let machine = Machine.create ~seed:42 ~n_procs:8 ~costs:Costs.software () in
  let rt = Runtime.create machine in
  let tp = Runtime.transport rt in
  let slow = { Transport.no_fault with delay = 0.3; delay_cycles = 300 } in
  Transport.configure_faults tp ~seed:5 [ ("rpc", slow); ("rpc_reply", slow) ];
  let completed = ref 0 in
  for r = 0 to 3 do
    Machine.spawn machine ~on:r
      (Thread.repeat 15 (fun j ->
           let* () =
             Runtime.call rt ~access:Runtime.Rpc ~home:(4 + ((r + j) mod 4)) ~args_words:8
               ~result_words:2 (Thread.compute 30)
           in
           incr completed;
           Thread.return ()))
  done;
  Machine.run machine;
  Transport.check_all_delivered tp;
  Printf.printf "  rpc delayed=%d, rpc_reply delayed=%d, calls completed %d of 60\n"
    (Stats.get (Transport.stats tp) "xport.rpc.delayed")
    (Stats.get (Transport.stats tp) "xport.rpc_reply.delayed")
    !completed;
  Printf.printf "  digest %s\n" (Machine.digest machine)

(* A message that never arrives: post it, then stop the clock before
   its wire latency elapses.  The sanitizer names the lost kind. *)
let lost_message () =
  let machine = Machine.create ~seed:42 ~n_procs:8 ~costs:Costs.software () in
  let tp = Machine.transport machine in
  let ping = Transport.kind tp "ping" in
  Transport.Endpoint.register_all tp ~kind:ping (fun () -> Thread.return ());
  Transport.signal tp ping ~src:0 ~dst:5 ~words:16 (fun () -> ());
  Machine.run ~until:1 machine;
  match Transport.check_all_delivered tp with
  | () -> print_endline "  (unexpectedly clean)"
  | exception Check.Violation msg -> Printf.printf "  sanitizer fired: %s\n" msg

let () =
  Printf.printf "Posting %d messages, no faults:\n" n_msgs;
  run ~fault_seed:None ();
  Printf.printf "\nSame workload, faults armed (drop %.0f%%, duplicate %.0f%%, delay %.0f%%):\n"
    (100. *. flaky.drop) (100. *. flaky.duplicate) (100. *. flaky.delay);
  run ~fault_seed:(Some 7) ();
  Printf.printf "\nSame fault seed again - identical decisions:\n";
  run ~fault_seed:(Some 7) ();
  Printf.printf "\nFused migrations, 10%% of \"migrate\" messages dropped:\n";
  lossy_migrations ();
  Printf.printf "\nRPCs, 30%% of requests and replies delayed:\n";
  delayed_rpcs ();
  Printf.printf "\nStopping the clock with a message in flight:\n";
  lost_message ()
