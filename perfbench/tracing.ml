(* In-memory spans for the traced run, plus GC phases read in-process
   from the runtime's own event ring (the stdlib [runtime_events]
   library).  Spans and GC phases are stamped with CLOCK_MONOTONIC, the
   clock the runtime stamps its events with, so the two line up. *)

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]
(* The stub ships with bechamel's monotonic_clock library. *)

let now_ns () = Int64.to_int (clock_ns ())

(* Referencing the library links its stub into the executable. *)
let () = ignore Monotonic_clock.now

(* Span names. *)
let setup = 0
let setup_machine = 1
let setup_apps = 2
let setup_preload = 3
let driver_run = 4
let issue = 5
let complete = 6
let check = 7
let names =
  [|
    "setup";
    "setup.machine";
    "setup.apps";
    "setup.preload";
    "run.driver";
    "run.issue";
    "run.complete";
    "check";
  |]

(* Struct-of-arrays span store: name, start, end, parent span (-1 at the
   top).  Every span of one store belongs to one run: [run_id], the
   clock reading at creation, tells runs apart. *)
type t = {
  run_id : int;
  mutable n : int;
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable current : int;
}

let create () =
  let cap = 1024 in
  {
    run_id = now_ns ();
    n = 0;
    name = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap 0;
    current = -1;
  }

let grow t =
  let cap = 2 * Array.length t.name in
  let extend a = Array.append a (Array.make (cap - Array.length a) 0) in
  t.name <- extend t.name;
  t.start <- extend t.start;
  t.stop <- extend t.stop;
  t.parent <- extend t.parent

let open_ t name =
  if t.n = Array.length t.name then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.name.(i) <- name;
  t.parent.(i) <- t.current;
  t.current <- i;
  t.start.(i) <- now_ns ();
  i

let close t i =
  t.stop.(i) <- now_ns ();
  t.current <- t.parent.(i)

let within t name f =
  let i = open_ t name in
  let r = f () in
  close t i;
  r

(* --- GC phases ------------------------------------------------------- *)

(* Top-level runtime phase intervals (nested phases folded into their
   outermost one), in time order. *)
type gc_state = {
  mutable depth : int;
  mutable began : int;
  mutable intervals : (int * int) list;  (* reversed *)
  mutable lost : int;
}

type gc = {
  cursor : Runtime_events.cursor;
  callbacks : Runtime_events.Callbacks.t;
  st : gc_state;
}

let ts_ns ts = Int64.to_int (Runtime_events.Timestamp.to_int64 ts)

let gc_start () =
  Runtime_events.start ();
  let st = { depth = 0; began = 0; intervals = []; lost = 0 } in
  let runtime_begin _ ts _ =
    if st.depth = 0 then st.began <- ts_ns ts;
    st.depth <- st.depth + 1
  in
  let runtime_end _ ts _ =
    if st.depth > 0 then begin
      st.depth <- st.depth - 1;
      if st.depth = 0 then st.intervals <- (st.began, ts_ns ts) :: st.intervals
    end
  in
  let lost_events _ n = st.lost <- st.lost + n in
  let g =
    {
      cursor = Runtime_events.create_cursor None;
      callbacks = Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ();
      st;
    }
  in
  (* Drop whatever the runtime logged before tracing began. *)
  ignore (Runtime_events.read_poll g.cursor g.callbacks None);
  st.intervals <- [];
  g

let gc_poll g = ignore (Runtime_events.read_poll g.cursor g.callbacks None)

let gc_intervals g = Array.of_list (List.rev g.st.intervals)

let gc_lost g = g.st.lost

(* Nanoseconds of [gc] (sorted, disjoint intervals) inside [s, e). *)
let gc_within gc s e =
  let lo = ref 0 and hi = ref (Array.length gc) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if snd gc.(mid) <= s then lo := mid + 1 else hi := mid
  done;
  let total = ref 0 and k = ref !lo in
  while !k < Array.length gc && fst gc.(!k) < e do
    let a, b = gc.(!k) in
    total := !total + (min b e - max a s);
    incr k
  done;
  !total

(* --- derived times ---------------------------------------------------- *)

let spans_named t name =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    if t.name.(i) = name then acc := i :: !acc
  done;
  Array.of_list !acc

let sum_named t name f = Array.fold_left (fun a i -> a + f i) 0 (spans_named t name)

let duration t i = t.stop.(i) - t.start.(i)

(* Each span's self time with GC taken out: its duration less the GC
   inside it, minus the same for each of its children. *)
let self_ns t gc =
  let own = Array.init t.n (fun i -> duration t i - gc_within gc t.start.(i) t.stop.(i)) in
  let self = Array.copy own in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - own.(i)
  done;
  self

let write t oc =
  Printf.fprintf oc "run\tspan\tname\tstart_ns\tend_ns\tparent\n";
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%d\n" t.run_id i names.(t.name.(i)) t.start.(i)
      t.stop.(i) t.parent.(i)
  done
