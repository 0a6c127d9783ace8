(** The load generator: one process, a few Unix-socket connections to
    the daemon, newline-delimited requests, replies matched to
    requests in per-connection FIFO order (the daemon answers each
    connection in order).

    Every request sent goes into a {!log} with its due, send and reply
    times and the reply line, so the caller can check each answer
    after the timed phase, outside the measurement. *)

module Wire = Ftr_serve.Wire

exception Transport of string

type conn

val connect : string -> conn
(** Connect to a daemon socket (path relative to the working
    directory). Raises [Unix.Unix_error] when nothing listens yet. *)

val close : conn -> unit

val call : conn -> Wire.request -> string
(** One synchronous request/reply on an otherwise idle connection. *)

type log = {
  mutable n : int;  (** requests sent *)
  mutable ops : Wire.request array;
  mutable due : float array;  (** open loop: when it was due; closed loop: = sent *)
  mutable sent : float array;
  mutable answered : float array;  (** [nan] until the reply arrived *)
  mutable replies : string array;
}

val closed_loop : conn array -> ops:Wire.request array -> from:int -> duration:float -> log * int
(** Send [ops] in order from index [from], each connection keeping
    exactly one request in flight, for [duration] seconds or until
    [ops] runs out; then the in-flight ones are awaited. Returns the
    log and the index of the first op not sent. The caller generates [ops] before
    the phase, so the loop times only the daemon and the socket. Fault
    deltas are sent alone: the generator waits until every connection
    is idle, sends the delta, and resumes after its reply, so every
    query is answered in the fault state of the deltas before it in
    log order. *)

val concat : log list -> log
(** The logs one after another, as one log. *)

type open_result = {
  log : log;
  backlog_mid : int;  (** sent minus answered when half were sent *)
  backlog_end : int;  (** … and when the last one was sent *)
  depth_max : int;  (** largest probed admission depth; -1 without a probe *)
}

val open_loop :
  ?probe:conn * float -> conn array -> ops:Wire.request array -> due:float array -> open_result
(** Send [ops.(i)] at [due.(i)] seconds from now on connection
    [i mod (Array.length conns)], whether or not earlier replies have
    arrived, then await every reply (raising {!Transport} if some are
    still missing 10 s after the last due time). The generator polls,
    never sleeps, until the last request is sent. With
    [probe = (c, interval)] a [health] request goes out on [c] every
    [interval] seconds and the admission depth it reports is
    tracked. *)
