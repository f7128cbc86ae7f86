(** Emerald-style object (data) migration over the messaging runtime.

    The paper wanted this comparison and could not run it ("we would
    like to compare our results to object migration, such as the
    mechanism in Emerald, but our group has not finished implementing
    object migration in Prelude yet", §4).  This module finishes it:

    {ul
    {- objects move between processors; the mover pays one message
       sized by the object's state;}
    {- callers address objects through per-processor {e location hints};
       a call that arrives at a stale home is {e forwarded} to the
       current home (an extra message plus forwarder CPU), and the
       reply teaches the caller the new location — Emerald's forwarding
       addresses;}
    {- {!call_pull} implements the move-on-access policy: the object is
       first migrated to the caller, then accessed locally — data
       migration in its purest software form.  Write-shared objects
       ping-pong, which is exactly the case the paper argues
       computation migration wins.}}

    Method bodies still run wherever the object currently lives, so the
    home-execution discipline of {!Objspace} is preserved. *)

open Cm_machine

type 'state t

val create :
  Runtime.t -> 'state Objspace.t -> words_of:('state -> int) -> 'state t
(** [create rt space ~words_of] manages the mobile objects of [space];
    [words_of] sizes an object's state for transfer messages. *)

val call :
  'state t ->
  Objspace.id ->
  args_words:int ->
  result_words:int ->
  ('state -> 'r Thread.t) ->
  'r Thread.t
(** [call t i m] invokes [m] on object [i] at its current home, routing
    through this processor's location hint with at most one forwarding
    hop (hints are corrected on return). *)

val migrate_object : 'state t -> Objspace.id -> to_:int -> unit Thread.t
(** [migrate_object t i ~to_] moves the object: one transfer message of
    [words_of state] words; afterwards the object's methods run on
    [to_], and calls routed through stale hints are forwarded. *)

val call_pull :
  'state t ->
  Objspace.id ->
  result_words:int ->
  ('state -> 'r Thread.t) ->
  'r Thread.t
(** [call_pull t i m] is the move-on-access policy: migrate the object
    to the calling processor (if remote), then run [m] locally. *)

val forwards : 'state t -> int
(** Number of calls that needed a forwarding hop. *)

val object_moves : 'state t -> int
(** Number of object migrations performed. *)

val outstanding_replies : 'state t -> int
(** Pooled reply records allocated by a serving home and not yet freed:
    0 once a run has drained, duplicated requests included (the stale
    reply to a duplicate frees its record on arrival). *)
