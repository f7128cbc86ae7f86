(* The call-shape ladder: one rung per layer, each a tight loop of one
   operation shape on a small uncontended machine, calling only the
   public functions of its layer and the layers below it.  A rung
   reports host ns/op with its exact simulated events/op and
   messages/op; a layer's marginal cost per operation is its rung minus
   the cost of the rung below it (see README.md, "Reading attr.*"). *)

open Cm_engine
open Cm_machine
open Cm_runtime
open Cm_apps

type result = { ns : float; events_per_op : float; msgs_per_op : float }

(* [prepare ()] builds a fresh fixture and returns its timed body, which
   runs [ops] operations and returns (host ns, events, messages).  The
   rung is the median of [reps] such batches. *)
let rung ~ops ~reps prepare =
  let samples =
    List.init reps (fun _ ->
        let ns, events, msgs = (prepare ()) () in
        (float ns /. float ops, float events /. float ops, float msgs /. float ops))
  in
  let ns, e, m = List.nth (List.sort compare samples) (reps / 2) in
  { ns; events_per_op = e; msgs_per_op = m }

let machine () = Machine.create ~seed:1 ~shards:1 ~n_procs:16 ~costs:Costs.software ()

(* Run [m] to quiescence: (host ns, events, messages). *)
let run_machine m () =
  let e0 = Machine.events_fired m and m0 = Network.total_messages m.Machine.net in
  let t0 = Tracing.now_ns () in
  Machine.run m;
  let ns = Tracing.now_ns () - t0 in
  (ns, Machine.events_fired m - e0, Network.total_messages m.Machine.net - m0)

(* Exactly [n] runs of [body], in one thread. *)
let loop n body =
  let i = ref 1 in
  Thread.while_ctx
    (fun _ ->
      incr i;
      !i <= n)
    body

(* [m] with its result dropped; the continuation is built once. *)
let drop m =
  let cache = ref None in
  fun c k ->
    match !cache with
    | Some (k0, f) when k0 == k -> m c f
    | _ ->
      let f _ = k () in
      cache := Some (k, f);
      m c f

(* Engine: a no-op handler re-posting itself, 64 chains in flight. *)
let sim_event ~ops =
  rung ~ops ~reps:5 (fun () ->
      let sim = Sim.create ~wheel_bits:12 () in
      let hid = ref Sim.nil_handler in
      hid :=
        Sim.handler sim (fun left ->
            if left > 1 then Sim.post_after sim ~delay:(1 + (left land 7)) !hid (left - 1));
      for _ = 1 to 64 do
        Sim.post sim ~time:0 !hid (ops / 64)
      done;
      fun () ->
        let t0 = Tracing.now_ns () in
        Sim.run sim;
        (Tracing.now_ns () - t0, Sim.events_fired sim, 0))

(* Network: 16 chains of messages, each delivery sending the next. *)
let net_message ~ops =
  rung ~ops ~reps:5 (fun () ->
      let m = machine () in
      let net = m.Machine.net in
      let kind = Network.kind net "ladder_msg" in
      let hid = ref Sim.nil_handler in
      hid :=
        Sim.handler m.Machine.sim (fun arg ->
            let left = arg lsr 4 and src = arg land 15 in
            if left > 1 then begin
              let dst = (src + 5) land 15 in
              ignore
                (Network.post_k net ~src ~dst ~words:8 ~kind ~hid:!hid
                   ~arg:(((left - 1) lsl 4) lor dst))
            end);
      for p = 0 to 15 do
        Sim.post m.Machine.sim ~time:0 !hid (((ops / 16) + 1) lsl 4 lor p)
      done;
      run_machine m)

(* Transport: a request/reply call with an empty body. *)
let xport_call ~ops =
  rung ~ops ~reps:5 (fun () ->
      let m = machine () in
      let tp = Machine.transport m in
      let req = Transport.kind tp "ladder_rpc" and reply = Transport.kind tp "ladder_reply" in
      Transport.Endpoint.register_all tp ~kind:req Fun.id;
      let call =
        Transport.call tp ~req ~reply ~dst:1 ~args_words:8 ~result_words:2 (Thread.return ())
      in
      Machine.spawn m ~on:0 (loop ops call);
      run_machine m)

(* Transport: one migration hop and a short-circuit return. *)
let xport_migrate ~ops =
  rung ~ops ~reps:5 (fun () ->
      let m = machine () in
      let tp = Machine.transport m in
      let hop_k = Transport.kind tp "ladder_migrate" in
      let ret_k = Transport.kind tp "ladder_return" in
      let home = Machine.proc m 0 and away = Machine.proc m 1 in
      let left = ref ops in
      let rec hop c = Transport.migrate_f tp hop_k ~dst:away ~words:8 ~fresh:true ~after:back c
      and back c = Transport.migrate_f tp ret_k ~dst:home ~words:2 ~fresh:false ~after:next c
      and next c =
        decr left;
        if !left > 0 then hop c else Thread.Frame.call_k c ()
      in
      Machine.spawn m ~on:0 (fun c k ->
          Thread.Frame.save_k c k;
          hop c);
      run_machine m)

let runtime m = Runtime.create m

(* Runtime: a fused static site whose home is the caller's processor. *)
let rt_local ~ops =
  rung ~ops ~reps:5 (fun () ->
      let m = machine () in
      let s =
        Runtime.site (runtime m) ~access:Runtime.Migrate ~home:0 ~args_words:8 ~result_words:2
          (Thread.return ())
      in
      Machine.spawn m ~on:0 (loop ops (Runtime.site_call s));
      run_machine m)

(* Runtime: a migrating static site call inside a scope, as a counting
   network traversal makes at each balancer. *)
let rt_site_migrate ~ops =
  rung ~ops ~reps:5 (fun () ->
      let m = machine () in
      let rt = runtime m in
      let s =
        Runtime.site rt ~access:Runtime.Migrate ~home:1 ~args_words:8 ~result_words:2
          (Thread.return ())
      in
      Machine.spawn m ~on:0 (loop ops (Runtime.scope rt ~result_words:2 (Runtime.site_call s)));
      run_machine m)

(* Runtime: a fused method-site RPC on one object, as a DHT get makes. *)
let rt_msite_rpc ~ops =
  rung ~ops ~reps:5 (fun () ->
      let m = machine () in
      let rt = runtime m in
      let space : Obj.t Objspace.t = Objspace.create m in
      let obj = (Objspace.register space ~home:1 (Obj.repr 0) :> int) in
      let ms =
        Runtime.msite rt ~access:Runtime.Rpc ~space ~args_words:8 ~result_words:2
          ~frame_body:(fun c -> Runtime.msite_finish c ())
          ~cps_body:(fun ~obj:_ ~a:_ ~b:_ -> Thread.return ())
      in
      Machine.spawn m ~on:0 (loop ops (Runtime.msite_scoped ms ~obj ~a:0 ~b:0));
      run_machine m)

module Shmem = Cm_memory.Shmem

let line_words = Shmem.default_config.line_words

(* Memory: a read that hits in the caller's cache (warmed untimed). *)
let shmem_read_hit ~ops =
  rung ~ops ~reps:5 (fun () ->
      let m = machine () in
      let mem = Shmem.create m in
      let a = Shmem.alloc mem ~home:1 ~words:line_words in
      let read = drop (Shmem.read mem a) in
      Machine.spawn m ~on:0 read;
      ignore (run_machine m ());
      Machine.spawn m ~on:0 (loop ops read);
      run_machine m)

(* Memory: a clean read miss to a remote home — a sweep over twice the
   cache's lines, so every read misses. *)
let shmem_read_miss ~ops =
  rung ~ops ~reps:5 (fun () ->
      let m = machine () in
      let mem = Shmem.create m in
      let lines = 2 * Shmem.default_config.cache_slots in
      let base = Shmem.alloc mem ~home:1 ~words:(lines * line_words) in
      let i = ref 0 in
      let read =
        drop (fun c k ->
            let a = base + (line_words * (!i mod lines)) in
            incr i;
            Shmem.read mem a c k)
      in
      Machine.spawn m ~on:0 (loop ops read);
      run_machine m)

(* Memory: a write that invalidates one other sharer.  Each round,
   processor 2 reads every line (untimed), then processor 0 writes every
   line (timed): an upgrade of its own shared copy that invalidates
   processor 2's.  A first untimed round makes processor 0 a sharer. *)
let shmem_write_inval ~ops =
  let lines = 1024 in
  rung ~ops ~reps:5 (fun () ->
      let m = machine () in
      let mem = Shmem.create m in
      let base = Shmem.alloc mem ~home:1 ~words:(lines * line_words) in
      let sweep f =
        let i = ref 0 in
        loop lines (fun c k ->
            let a = base + (line_words * !i) in
            incr i;
            f a c k)
      in
      let round () =
        Machine.spawn m ~on:2 (sweep (fun a -> drop (Shmem.read mem a)));
        ignore (run_machine m ());
        Machine.spawn m ~on:0 (sweep (fun a -> Shmem.write mem a 1));
        run_machine m ()
      in
      ignore (round ());
      fun () ->
        let ns = ref 0 and e = ref 0 and n = ref 0 in
        for _ = 1 to ops / lines do
          let dns, de, dn = round () in
          ns := !ns + dns;
          e := !e + de;
          n := !n + dn
        done;
        (!ns, !e, !n))

(* Apps: an uncontended DHT get by fused RPC. *)
let dht_get ~ops =
  rung ~ops ~reps:5 (fun () ->
      let m = machine () in
      let table =
        Dht.create (Sysenv.make m) ~buckets:64 ~bucket_capacity:64 ~fused:true
          ~mode:(Dht.Messaging Cm_core.Prelude.Rpc) ~node_procs:[| 0; 1; 2; 3 |] ()
      in
      for k = 0 to 999 do
        Dht.preload table ~key:k ~value:k
      done;
      let i = ref 0 in
      let get =
        drop (fun c k ->
            incr i;
            Dht.get table (!i mod 1000) c k)
      in
      Machine.spawn m ~on:8 (loop ops get);
      run_machine m)

(* Rung name, body, and operations per batch (about 10-40 ms each). *)
let rungs =
  [
    ("sim_event", sim_event, 400_000);
    ("net_message", net_message, 200_000);
    ("xport_call", xport_call, 40_000);
    ("xport_migrate", xport_migrate, 40_000);
    ("rt_local", rt_local, 200_000);
    ("rt_site_migrate", rt_site_migrate, 40_000);
    ("rt_msite_rpc", rt_msite_rpc, 40_000);
    ("shmem_read_hit", shmem_read_hit, 200_000);
    ("shmem_read_miss", shmem_read_miss, 40_000);
    ("shmem_write_inval", shmem_write_inval, 40_960);
    ("dht_get", dht_get, 40_000);
  ]

let run () = List.map (fun (name, f, ops) -> (name, f ~ops)) rungs
