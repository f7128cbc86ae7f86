open Cm_engine
open Thread.Infix

type recv = Recv_pipeline | Recv_bare

type fault = { drop : float; duplicate : float; delay : float; delay_cycles : int }

let no_fault = { drop = 0.0; duplicate = 0.0; delay = 0.0; delay_cycles = 0 }

(* Delivery counters of one kind label, shared by every declaration of
   that label.  They live in the transport's own registry: the machine's
   registry feeds the run digests [repro selfcheck] compares, so adding
   names there would break bit-identity with the hand-rolled senders
   this module replaced. *)
type ctrs = {
  c_name : string;
  posted_c : Stats.counter;
  delivered_c : Stats.counter;
  dropped_c : Stats.counter;
  duplicated_c : Stats.counter;
  delayed_c : Stats.counter;
  stale_c : Stats.counter;
}

type 'a kind = {
  tp : t;  (* the owning transport: a frame step holding the kind can send *)
  ctrs : ctrs;
  net_k : Network.kind;
  recv : recv;
  handlers : ('a -> unit Thread.t) option array;  (* one endpoint slot per processor *)
  ep_delivered : int array;
  (* Pooled delivery handler (arg = destination processor): bumps the
     delivery counters without a per-message closure, the arrival path
     of payload-free injections. *)
  arrive_hid : Sim.hid;
  (* Cached fault spec, invalidated by generation when the fault
     configuration changes. *)
  mutable f_gen : int;
  mutable f_spec : fault option;
  (* Run on the value of a [notify_reply] of this kind dropped as stale,
     so a sender that pooled the value can reclaim it (see [on_stale]). *)
  mutable stale_fn : Obj.t -> unit;
}

and t = {
  sim : Sim.t;
  costs : Costs.t;
  net : Network.t;
  n_procs : int;
  spawn : on:int -> unit Thread.t -> unit;
  xstats : Stats.t;
  mutable kind_names : string list;  (* distinct labels, declaration order (reversed) *)
  mutable faults_on : bool;
  mutable fault_specs : (string * fault) list;
  mutable fault_gen : int;
  mutable frng : Rng.t;
  (* Pooled arrival frames: every dispatch/signal arrival is an int slot
     posted through [af_hid] — the per-message arrive closure of the
     original path, defunctionalized.  [af_code] selects the action: 0
     runs [af_fn] as a thunk, 1 is a reply — [af_fn] applied to [af_arg]
     if suspension [af_gen] of thread [af_ctx] has not resumed yet — 2
     dispatches [af_arg] as an endpoint payload, and 3 is a reply whose
     kind's [stale_fn] reclaims [af_arg] if it arrives stale.
     [af_timer] holds the timer of a fault-delayed delivery while it
     waits out its extra delay (a cancelled delivery frees its slot and
     counts as dropped, so the in-flight accounting stays closed). *)
  mutable af_kind : Obj.t array;
  mutable af_fn : Obj.t array;
  mutable af_arg : Obj.t array;
  mutable af_ctx : Obj.t array;
  mutable af_code : int array;
  mutable af_dst : int array;
  mutable af_words : int array;
  mutable af_gen : int array;
  mutable af_timer : Sim.token option array;
  mutable af_free : int array;
  mutable af_free_top : int;
  mutable af_hid : Sim.hid;
}

let obj_unit : Obj.t = Obj.repr 0

let obj_ignore : Obj.t = Obj.repr (ignore : unit -> unit)

let intern_ctrs t name =
  if not (List.mem name t.kind_names) then t.kind_names <- name :: t.kind_names;
  let c suffix = Stats.counter t.xstats ("xport." ^ name ^ "." ^ suffix) in
  {
    c_name = name;
    posted_c = c "posted";
    delivered_c = c "delivered";
    dropped_c = c "dropped";
    duplicated_c = c "duplicated";
    delayed_c = c "delayed";
    stale_c = c "stale";
  }

let kind t ?(recv = Recv_pipeline) name =
  let ctrs = intern_ctrs t name in
  let ep_delivered = Array.make t.n_procs 0 in
  (* Registered once per declaration: every payload-free arrival of this
     kind reuses it, so the steady-state inject path never allocates. *)
  let arrive_hid =
    Sim.handler t.sim (fun dst ->
        Stats.Counter.incr ctrs.delivered_c;
        ep_delivered.(dst) <- ep_delivered.(dst) + 1)
  in
  {
    tp = t;
    ctrs;
    net_k = Network.kind t.net name;
    recv;
    handlers = Array.make t.n_procs None;
    ep_delivered;
    arrive_hid;
    f_gen = -1;
    f_spec = None;
    stale_fn = ignore;
  }

let on_stale (k : 'a kind) (f : 'a -> unit) = k.stale_fn <- (Obj.magic f : Obj.t -> unit)

(* Accounting accessors for external frame-path fast paths (the
   runtime's fused call sites): exactly the counter traffic [migrate_f]'s
   steps perform, exposed so a caller that already holds the per-site
   constants need not round-trip them through the frame slots. *)
let net_kind k = k.net_k

let account_delivered k ~pid =
  Stats.Counter.incr k.ctrs.delivered_c;
  k.ep_delivered.(pid) <- k.ep_delivered.(pid) + 1

module Endpoint = struct
  let register t ~proc ~kind handler =
    if proc < 0 || proc >= t.n_procs then
      invalid_arg
        (Printf.sprintf "Transport.Endpoint.register (%s): processor %d out of range [0,%d)"
           kind.ctrs.c_name proc t.n_procs);
    kind.handlers.(proc) <- Some handler

  let register_all t ~kind handler =
    for proc = 0 to t.n_procs - 1 do
      kind.handlers.(proc) <- Some handler
    done

  let delivered ~kind ~proc = kind.ep_delivered.(proc)
end

(* ------------------------------------------------------------------ *)
(* Fault injection                                                    *)
(* ------------------------------------------------------------------ *)

(* Faults change which messages arrive, when, and how often — never the
   delivery path: a faulted message is posted through the same pooled
   arrival slots as a clean one, so the frame steps that produce the
   fault-free numbers are the ones exercised under faults. *)
let configure_faults t ~seed specs =
  t.fault_specs <- specs;
  t.faults_on <- specs <> [];
  t.fault_gen <- t.fault_gen + 1;
  t.frng <- Rng.create ~seed

let clear_faults t =
  t.fault_specs <- [];
  t.faults_on <- false;
  t.fault_gen <- t.fault_gen + 1

let fault_spec t (k : _ kind) =
  if k.f_gen <> t.fault_gen then begin
    k.f_spec <- List.assoc_opt k.ctrs.c_name t.fault_specs;
    k.f_gen <- t.fault_gen
  end;
  k.f_spec

(* Draw only for non-zero probabilities: configuring one aspect of one
   kind does not perturb the decision stream of the others. *)
let fault_hits t p = p > 0.0 && Rng.float t.frng 1.0 < p

(* The fault decisions for one message of [k], drawn in a fixed order —
   drop, delay, duplicate — with their counters bumped: [-1] if the
   message is dropped, otherwise bit 0 set if it takes the extra delay
   leg and bit 1 set if it is delivered twice.  [0], the only answer
   with faults off, is a plain delivery. *)
let fault_plan t k =
  if not t.faults_on then 0
  else
    match fault_spec t k with
    | None -> 0
    | Some f ->
      if fault_hits t f.drop then begin
        Stats.Counter.incr k.ctrs.dropped_c;
        -1
      end
      else begin
        let delayed = fault_hits t f.delay in
        if delayed then Stats.Counter.incr k.ctrs.delayed_c;
        let duplicated = fault_hits t f.duplicate in
        if duplicated then Stats.Counter.incr k.ctrs.duplicated_c;
        (if delayed then 1 else 0) lor if duplicated then 2 else 0
      end

(* --- pooled arrival frames ----------------------------------------- *)

let af_grow t =
  let cap = Array.length t.af_code in
  let ncap = 2 * cap in
  let copy_obj (a : Obj.t array) =
    let n = Array.make ncap obj_unit in
    Array.blit a 0 n 0 cap;
    n
  in
  let copy_int (a : int array) =
    let n = Array.make ncap 0 in
    Array.blit a 0 n 0 cap;
    n
  in
  t.af_kind <- copy_obj t.af_kind;
  t.af_fn <- copy_obj t.af_fn;
  t.af_arg <- copy_obj t.af_arg;
  t.af_ctx <- copy_obj t.af_ctx;
  t.af_code <- copy_int t.af_code;
  t.af_dst <- copy_int t.af_dst;
  t.af_words <- copy_int t.af_words;
  t.af_gen <- copy_int t.af_gen;
  let timers = Array.make ncap None in
  Array.blit t.af_timer 0 timers 0 cap;
  t.af_timer <- timers;
  t.af_free <- copy_int t.af_free;
  for i = 0 to cap - 1 do
    t.af_free.(t.af_free_top + i) <- cap + i
  done;
  t.af_free_top <- t.af_free_top + cap

let af_fill t (k : _ kind) ~dst ~words ~code ~fn ~arg ~ctx ~gen =
  if t.af_free_top = 0 then af_grow t;
  t.af_free_top <- t.af_free_top - 1;
  let slot = t.af_free.(t.af_free_top) in
  t.af_kind.(slot) <- Obj.repr k;
  t.af_fn.(slot) <- fn;
  t.af_arg.(slot) <- arg;
  t.af_ctx.(slot) <- ctx;
  t.af_code.(slot) <- code;
  t.af_dst.(slot) <- dst;
  t.af_words.(slot) <- words;
  t.af_gen.(slot) <- gen;
  slot

let af_clone t slot =
  af_fill t
    (Obj.obj t.af_kind.(slot) : Obj.t kind)
    ~dst:t.af_dst.(slot) ~words:t.af_words.(slot) ~code:t.af_code.(slot) ~fn:t.af_fn.(slot)
    ~arg:t.af_arg.(slot) ~ctx:t.af_ctx.(slot) ~gen:t.af_gen.(slot)

let af_release t slot =
  t.af_kind.(slot) <- obj_unit;
  t.af_fn.(slot) <- obj_unit;
  t.af_arg.(slot) <- obj_unit;
  t.af_ctx.(slot) <- obj_unit;
  t.af_free.(t.af_free_top) <- slot;
  t.af_free_top <- t.af_free_top + 1

(* Receive-pipeline charge in front of an endpoint handler.  The frame
   path parks the handler and payload in the fresh thread's slots; the
   CPS path is the bind chain of the original dispatch. *)
let recv_step c =
  let handler : Obj.t -> unit Thread.t = Thread.Frame.getv0 c in
  let payload : Obj.t = Thread.Frame.getv1 c in
  let k : unit -> unit = Obj.magic (Thread.Frame.take_k c) in
  handler payload c k

let recv_piped cost (handler : Obj.t -> unit Thread.t) (payload : Obj.t) : unit Thread.t =
 fun c kont ->
  if Thread.Frame.on c then begin
    Thread.Frame.save_k c kont;
    Thread.Frame.setv0 c handler;
    Thread.Frame.setv1 c payload;
    Thread.Frame.hold_then c cost recv_step
  end
  else Thread.compute cost c (fun () -> handler payload c kont)

(* Arrival action of a code-2 frame: look up the endpoint and start the
   handler thread, charging reception per the kind's [recv] mode. *)
let deliver_payload t (k : Obj.t kind) ~dst ~words (payload : Obj.t) =
  match k.handlers.(dst) with
  | None ->
    invalid_arg
      (Printf.sprintf "Transport: no %S endpoint registered at processor %d" k.ctrs.c_name dst)
  | Some handler -> (
    match k.recv with
    | Recv_bare -> t.spawn ~on:dst (handler payload)
    | Recv_pipeline ->
      t.spawn ~on:dst
        (recv_piped (Costs.recv_pipeline t.costs ~words ~new_thread:true) handler payload))

(* A reply whose suspension has already resumed.  Under fault injection
   it is a duplicate — of the reply, or the reply to a duplicated
   request — and is counted and dropped.  Without faults nothing can
   duplicate a message, so it is a bug: fail here rather than resume the
   thread at whatever it blocked on next. *)
let stale_reply t (k : _ kind) ~dst =
  if t.faults_on then Stats.Counter.incr k.ctrs.stale_c
  else
    failwith
      (Printf.sprintf "Transport: stale %S reply at processor %d with no faults armed" k.ctrs.c_name
         dst)

let af_arrive t slot =
  let k : Obj.t kind = Obj.obj t.af_kind.(slot) in
  let fn = t.af_fn.(slot) in
  let arg = t.af_arg.(slot) in
  let ctx = t.af_ctx.(slot) in
  let code = t.af_code.(slot) in
  let dst = t.af_dst.(slot) in
  let words = t.af_words.(slot) in
  let gen = t.af_gen.(slot) in
  af_release t slot;
  Stats.Counter.incr k.ctrs.delivered_c;
  k.ep_delivered.(dst) <- k.ep_delivered.(dst) + 1;
  if code = 0 then (Obj.obj fn : unit -> unit) ()
  else if code = 2 then deliver_payload t k ~dst ~words arg
  else if Thread.Frame.claim (Obj.obj ctx) gen then (Obj.obj fn : Obj.t -> unit) arg
  else begin
    stale_reply t k ~dst;
    if code = 3 then k.stale_fn arg
  end

(* The delay leg of a fault-delayed delivery: at network arrival the
   slot waits [delay_cycles] more on a cancellable timer, so timeout and
   retry logic (and tests) can revoke a delivery still stuck there.  The
   one place a send allocates — [Sim.timer] takes a closure — which is
   why it sits outside the hot send functions: delayed deliveries exist
   only under fault injection. *)
let post_delayed t k ~src ~dst ~words slot =
  let extra = match fault_spec t k with Some f -> f.delay_cycles | None -> 0 in
  Network.send_k t.net ~src ~dst ~words ~kind:k.net_k (fun () ->
      t.af_timer.(slot) <-
        Some
          (Sim.timer t.sim ~delay:extra (fun () ->
               t.af_timer.(slot) <- None;
               af_arrive t slot)))

let post_leg t k ~src ~dst ~words ~delayed slot =
  if delayed then post_delayed t k ~src ~dst ~words slot
  else Network.post_k t.net ~src ~dst ~words ~kind:k.net_k ~hid:t.af_hid ~arg:slot

(* Post a filled slot as [fault_plan] decided: a duplicate is a second
   slot with the same contents, and each copy takes the delay leg if the
   plan says so.  Returns the first copy's wire latency. *)
let post_slot t k ~src ~dst ~words ~plan slot =
  let twin = if plan land 2 = 0 then -1 else af_clone t slot in
  let delayed = plan land 1 <> 0 in
  let latency = post_leg t k ~src ~dst ~words ~delayed slot in
  if twin >= 0 then ignore (post_leg t k ~src ~dst ~words ~delayed twin : int);
  latency

(* Post one message whose arrival action is described by a pooled frame
   slot: counter bumps and the action dispatch happen in the
   transport-wide [af_hid] handler, so the send path allocates
   nothing.  The fault decisions are made here, before the slot is
   posted. *)
let send_pooled t k ~src ~dst ~words ~code ~fn ~arg ~ctx ~gen =
  Stats.Counter.incr k.ctrs.posted_c;
  let plan = fault_plan t k in
  if plan >= 0 then
    ignore
      (post_slot t k ~src ~dst ~words ~plan (af_fill t k ~dst ~words ~code ~fn ~arg ~ctx ~gen)
        : int)

let create ~sim ~costs ~net ~procs ~spawn =
  let self = ref None in
  let t =
    {
      sim;
      costs;
      net;
      n_procs = Array.length procs;
      spawn;
      xstats = Stats.create ();
      kind_names = [];
      faults_on = false;
      fault_specs = [];
      fault_gen = 0;
      frng = Rng.create ~seed:0;
      af_kind = Array.make 16 obj_unit;
      af_fn = Array.make 16 obj_unit;
      af_arg = Array.make 16 obj_unit;
      af_ctx = Array.make 16 obj_unit;
      af_code = Array.make 16 0;
      af_dst = Array.make 16 0;
      af_words = Array.make 16 0;
      af_gen = Array.make 16 0;
      af_timer = Array.make 16 None;
      af_free = Array.init 16 (fun i -> i);
      af_free_top = 16;
      af_hid = Sim.handler sim (fun _ -> assert false);
    }
  in
  let hid =
    Sim.handler sim (fun slot ->
        match !self with Some t -> af_arrive t slot | None -> assert false)
  in
  t.af_hid <- hid;
  self := Some t;
  t

(* --- raw sends ------------------------------------------------------ *)

let dispatch t (k : 'a kind) ~src ~dst ~words payload =
  send_pooled t k ~src ~dst ~words ~code:2 ~fn:obj_unit ~arg:(Obj.repr payload) ~ctx:obj_unit
    ~gen:0

let signal t k ~src ~dst ~words deliver =
  send_pooled t k ~src ~dst ~words ~code:0 ~fn:(Obj.repr deliver) ~arg:obj_unit ~ctx:obj_unit
    ~gen:0

(* Payload-free injection is the per-message hot path of the coherence
   controllers (several messages per miss): it posts the kind's pooled
   arrival handler straight through the network — no arrival closure,
   no event allocation.  A faulted injection takes a pooled slot whose
   action is a no-op, so a delayed copy can be cancelled like any
   other. *)
let inject t k ~src ~dst ~words =
  Stats.Counter.incr k.ctrs.posted_c;
  let plan = fault_plan t k in
  if plan = 0 then
    Network.post_k t.net ~src ~dst ~words ~kind:k.net_k ~hid:k.arrive_hid ~arg:dst
  else if plan < 0 then 0
  else
    post_slot t k ~src ~dst ~words ~plan
      (af_fill t k ~dst ~words ~code:0 ~fn:obj_ignore ~arg:obj_unit ~ctx:obj_unit ~gen:0)

let pending_delays t =
  Array.fold_left (fun n tok -> if Option.is_some tok then n + 1 else n) 0 t.af_timer

let cancel_pending_delays t =
  let cancelled = ref 0 in
  Array.iteri
    (fun slot tok ->
      match tok with
      | None -> ()
      | Some tok ->
        t.af_timer.(slot) <- None;
        if Sim.cancel t.sim tok then begin
          (* The delivery will never happen: account it as dropped so
             [inflight]/[check_all_delivered] stay closed. *)
          let k : Obj.t kind = Obj.obj t.af_kind.(slot) in
          Stats.Counter.incr k.ctrs.dropped_c;
          af_release t slot;
          incr cancelled
        end)
    t.af_timer;
  !cancelled

(* ------------------------------------------------------------------ *)
(* Monadic senders                                                    *)
(* ------------------------------------------------------------------ *)

(* Each sender has a frame fast path (statically-allocated steps over
   the thread's frame slots — see Thread.Frame) and the original CPS
   monad, kept in the [_cps] sibling as the reference engine.  Both
   schedule identical events; the oracle in test/ compares their
   digests. *)

(* The one-way senders ([post], [notify_reply]) charge the send
   pipeline, then post a pooled frame from the (possibly migrated)
   current processor.  A send ends its chain, so the frame path parks
   the whole pooled frame in the slots: v0 the kind (the transport
   comes from it), v1..v3 fn/arg/ctx, i1 the destination, i2 the code
   plus four times the words, i3 the generation. *)
let send_step c =
  let k : Obj.t kind = Thread.Frame.getv0 c in
  let packed = Thread.Frame.geti2 c in
  send_pooled k.tp k
    ~src:(Processor.id (Thread.Frame.proc c))
    ~dst:(Thread.Frame.geti1 c) ~words:(packed lsr 2) ~code:(packed land 3)
    ~fn:(Thread.Frame.getv1 c) ~arg:(Thread.Frame.getv2 c) ~ctx:(Thread.Frame.getv3 c)
    ~gen:(Thread.Frame.geti3 c);
  Thread.Frame.call_k c ()

let send_cps t k ~dst ~words ~code ~fn ~arg ~ctx ~gen =
  let* p = Thread.proc in
  let* () = Thread.compute (Costs.send_pipeline t.costs ~words) in
  fun _ctx kont ->
    send_pooled t k ~src:(Processor.id p) ~dst ~words ~code ~fn ~arg ~ctx ~gen;
    kont ()

let send t k ~dst ~words ~code ~fn ~arg ~ctx ~gen c kont =
  if Thread.Frame.on c then begin
    Thread.Frame.save_k c kont;
    Thread.Frame.setv0 c k;
    Thread.Frame.setv1 c fn;
    Thread.Frame.setv2 c arg;
    Thread.Frame.setv3 c ctx;
    Thread.Frame.seti1 c dst;
    Thread.Frame.seti2 c (code lor (words lsl 2));
    Thread.Frame.seti3 c gen;
    Thread.Frame.hold_then c (Costs.send_pipeline t.costs ~words) send_step
  end
  else send_cps t k ~dst ~words ~code ~fn ~arg ~ctx ~gen c kont

let post t k ~dst ~words payload c kont =
  send t k ~dst ~words ~code:2 ~fn:obj_unit ~arg:(Obj.repr payload) ~ctx:obj_unit ~gen:0 c kont

let send_reply t k ~code ~dst ~words ~ctx ~gen (fn : 'a -> unit) (v : 'a) c kont =
  send t k ~dst ~words ~code ~fn:(Obj.repr fn) ~arg:(Obj.repr v)
    ~ctx:(Obj.repr (ctx : Thread.Frame.ctx))
    ~gen c kont

(* A stale copy of a [notify_reply] goes to its kind's [on_stale]
   handler (code 3).  [call]'s replies never do (code 1): one reply kind
   carries results of every type, so no handler could be typed for it. *)
let notify_reply t k ~dst ~words ~ctx ~gen fn v c kont =
  send_reply t k ~code:3 ~dst ~words ~ctx ~gen fn v c kont

(* --- call: full RPC ------------------------------------------------- *)

(* The request payload: one closure per call (it crosses the wire and
   must survive the server body clobbering the server thread's frame
   slots).  The server runs [body] wherever the request lands, then
   replies from wherever the body ends up — it may itself migrate — with
   the reply stamped by the caller's suspension [gen].  A duplicated
   request runs the body a second time, and its reply, like a
   duplicated reply, arrives stale and is dropped. *)
let server_stub t reply ~caller ~ctx ~gen ~result_words (resume : 'r -> unit)
    (body : 'r Thread.t) : unit Thread.t =
 fun sc sk ->
  body sc (fun r ->
      send_reply t reply ~code:1 ~dst:caller ~words:result_words ~ctx ~gen resume r sc sk)

let call_cps t ~req ~reply ~dst ~args_words ~result_words body =
  let* caller = Thread.proc in
  let caller_id = Processor.id caller in
  (* Client stub: marshal and send the request, then block until the
     reply stamped with this suspension resumes the caller. *)
  let* () = Thread.compute (Costs.send_pipeline t.costs ~words:args_words) in
  let* r =
   fun c kont ->
    let gen = Thread.Frame.gen c in
    Thread.await
      (fun ~resume ->
        dispatch t req ~src:caller_id ~dst ~words:args_words
          (server_stub t reply ~caller:caller_id ~ctx:c ~gen ~result_words resume body))
      c kont
  in
  (* Reply reception on the caller: no thread creation, just unblock. *)
  let* () = Thread.compute (Costs.recv_pipeline t.costs ~words:result_words ~new_thread:false) in
  Thread.return r

let call_done_step c =
  let r : Obj.t = Thread.Frame.getv0 c in
  Thread.Frame.call_k c r

let call_recv_step c =
  let t : t = Thread.Frame.getv1 c in
  let words = Thread.Frame.geti3 c in
  Thread.Frame.hold_then c
    (Costs.recv_pipeline t.costs ~words ~new_thread:false)
    call_done_step

(* Runs from the network event delivering the reply: park the result and
   requeue the caller, exactly as an [await] resumption would; reception
   is charged after dispatch. *)
let call_reply_step c (r : Obj.t) =
  Thread.Frame.setv0 c r;
  Thread.Frame.enqueue_then c call_recv_step

let call_send_step c =
  let body : Obj.t Thread.t = Thread.Frame.getv0 c in
  let t : t = Thread.Frame.getv1 c in
  let req : unit Thread.t kind = Thread.Frame.getv2 c in
  let reply : Obj.t kind = Thread.Frame.getv3 c in
  let dst = Thread.Frame.geti1 c in
  let args_words = Thread.Frame.geti2 c in
  let result_words = Thread.Frame.geti3 c in
  let caller = Processor.id (Thread.Frame.proc c) in
  (* [t] stays in v1 and [result_words] in i3 for the reply step; the
     other slots are dead once the stub is built. *)
  let resume = Thread.Frame.resume c call_reply_step in
  dispatch t req ~src:caller ~dst ~words:args_words
    (server_stub t reply ~caller ~ctx:c ~gen:(Thread.Frame.gen c) ~result_words resume body);
  Thread.Frame.release c

let call t ~req ~reply ~dst ~args_words ~result_words body c kont =
  if Thread.Frame.on c then begin
    Thread.Frame.save_k c kont;
    Thread.Frame.setv0 c body;
    Thread.Frame.setv1 c t;
    Thread.Frame.setv2 c req;
    Thread.Frame.setv3 c reply;
    Thread.Frame.seti1 c dst;
    Thread.Frame.seti2 c args_words;
    Thread.Frame.seti3 c result_words;
    Thread.Frame.hold_then c (Costs.send_pipeline t.costs ~words:args_words) call_send_step
  end
  else call_cps t ~req ~reply ~dst ~args_words ~result_words body c kont

(* --- migrate: ship the current continuation ------------------------- *)

(* The send-side accounting of one migration, shared by every migration
   sender (both paths below and the runtime's fused call sites): count
   the post and draw the one fault a migration takes.  [false] means the
   message was dropped and the continuation with it; the caller ends the
   thread by releasing its CPU.  Duplicate and delay do not apply — the
   payload is the thread itself. *)
let post_migration t k =
  Stats.Counter.incr k.ctrs.posted_c;
  let dropped =
    t.faults_on && match fault_spec t k with Some f -> fault_hits t f.drop | None -> false
  in
  if dropped then Stats.Counter.incr k.ctrs.dropped_c;
  not dropped

let migrate_cps t k ~dst ~words ~fresh =
  let* p = Thread.proc in
  let* () = Thread.compute (Costs.send_pipeline t.costs ~words) in
  if not (post_migration t k) then fun _ctx _kont -> Processor.release p
  else
    let* () =
      Thread.travel_k ~net:t.net ~dst ~words ~kind:k.net_k
        ~recv_work:(Costs.recv_pipeline t.costs ~words ~new_thread:fresh)
    in
    fun _ctx kont ->
      Stats.Counter.incr k.ctrs.delivered_c;
      let d = Processor.id dst in
      k.ep_delivered.(d) <- k.ep_delivered.(d) + 1;
      kont ()

let mig_done_step c =
  let k : Obj.t kind = Thread.Frame.getv0 c in
  Stats.Counter.incr k.ctrs.delivered_c;
  let d = Processor.id (Thread.Frame.proc c) in
  k.ep_delivered.(d) <- k.ep_delivered.(d) + 1;
  Thread.Frame.run_after2 c

let mig_send_step c =
  let k : Obj.t kind = Thread.Frame.getv0 c in
  let t : t = Thread.Frame.getv1 c in
  if post_migration t k then begin
    let words = Thread.Frame.geti1 c in
    Thread.Frame.travel ~net:t.net ~dst:(Thread.Frame.getv2 c) ~words ~kind:k.net_k
      ~recv_work:(Costs.recv_pipeline t.costs ~words ~new_thread:(Thread.Frame.geti2 c = 1))
      ~after:mig_done_step c
  end
  else Thread.Frame.release c

let migrate_f t k ~dst ~words ~fresh ~after c =
  Thread.Frame.setv0 c k;
  Thread.Frame.setv1 c t;
  Thread.Frame.setv2 c dst;
  Thread.Frame.seti1 c words;
  Thread.Frame.seti2 c (if fresh then 1 else 0);
  Thread.Frame.set_after2 c after;
  Thread.Frame.hold_then c (Costs.send_pipeline t.costs ~words) mig_send_step

let mig_kont_step c = Thread.Frame.call_k c ()

let migrate t k ~dst ~words ~fresh c kont =
  if Thread.Frame.on c then begin
    Thread.Frame.save_k c kont;
    migrate_f t k ~dst ~words ~fresh ~after:mig_kont_step c
  end
  else migrate_cps t k ~dst ~words ~fresh c kont

(* ------------------------------------------------------------------ *)
(* Accounting                                                         *)
(* ------------------------------------------------------------------ *)

let stats t = t.xstats

let counter_of t name suffix = Stats.get t.xstats ("xport." ^ name ^ "." ^ suffix)

let posted t name = counter_of t name "posted"

let delivered t name = counter_of t name "delivered"

let dropped t name = counter_of t name "dropped"

let stale t name = counter_of t name "stale"

let inflight t name =
  counter_of t name "posted"
  + counter_of t name "duplicated"
  - counter_of t name "delivered"
  - counter_of t name "dropped"

let inflight_total t = List.fold_left (fun acc name -> acc + inflight t name) 0 t.kind_names

let check_all_delivered t =
  List.iter
    (fun name ->
      let n = inflight t name in
      Check.require (n = 0) "Transport: %d %S message(s) posted but never delivered" n name)
    (List.rev t.kind_names)
