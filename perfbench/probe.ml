(* Host-time probes for the traced run.

   Everything here lives in the benchmark, around calls into the
   library's public functions: a monotonic nanosecond clock with a
   calibrated read cost, call timers wrapped around a [Sched.t] (the
   scheduler layer) and around the [Buffered] admission gate, an
   in-memory span log written once at exit as Chrome trace_event JSON,
   and GC phases read back from the runtime's own event ring
   ([Runtime_events]).

   The timers keep plain int counters in mutable records, so the wrapped
   hot path allocates nothing of its own: the GC counters of a traced
   run stay comparable with the untraced one. *)

open Sfq_base

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Mean cost of one clock read, in ns. Each timed call pays about one
   read inside its own interval and one more in its caller's. *)
let calibrate_clock () =
  let n = 400_000 in
  let t0 = now_ns () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (now_ns ()))
  done;
  float_of_int (now_ns () - t0) /. float_of_int n

(* ------------------------------------------------------------------ *)
(* Spans: name, category, start, stop and the span that caused it. *)

type spans = {
  kind : int array;
  start : int array;
  stop : int array;
  parent : int array;
  mutable n : int;
  mutable lost : int;
  mutable kinds : (string * string) list;  (* (name, category), newest first *)
  mutable nkinds : int;
  mutable current : int;  (* innermost open coarse span, -1 at top *)
}

let span_cap = 1 lsl 17

let spans =
  lazy
    {
      kind = Array.make span_cap 0;
      start = Array.make span_cap 0;
      stop = Array.make span_cap 0;
      parent = Array.make span_cap (-1);
      n = 0;
      lost = 0;
      kinds = [];
      nkinds = 0;
      current = -1;
    }

let kind_id ~cat name =
  let s = Lazy.force spans in
  let rec find i = function
    | [] -> None
    | (n, c) :: rest -> if n = name && c = cat then Some i else find (i - 1) rest
  in
  match find (s.nkinds - 1) s.kinds with
  | Some i -> i
  | None ->
    s.kinds <- (name, cat) :: s.kinds;
    s.nkinds <- s.nkinds + 1;
    s.nkinds - 1

let add_span s ~kind ~start ~stop =
  if s.n < span_cap then begin
    let i = s.n in
    s.kind.(i) <- kind;
    s.start.(i) <- start;
    s.stop.(i) <- stop;
    s.parent.(i) <- s.current;
    s.n <- i + 1;
    i
  end
  else begin
    s.lost <- s.lost + 1;
    -1
  end

(* A coarse span (a repetition, a subtraction cell, one experiment):
   every span recorded while [f] runs names it as its parent. *)
let with_span ~cat name f =
  let s = Lazy.force spans in
  let kind = kind_id ~cat name in
  let t0 = now_ns () in
  let id = add_span s ~kind ~start:t0 ~stop:t0 in
  let saved = s.current in
  s.current <- id;
  let finish () =
    s.current <- saved;
    if id >= 0 then s.stop.(id) <- now_ns ()
  in
  match f () with
  | r ->
    finish ();
    r
  | exception e ->
    finish ();
    raise e

(* ------------------------------------------------------------------ *)
(* GC phases from the runtime's event ring. Nested phases are folded
   into their outermost one, so [pause_ns] is the time the runtime
   spent in any GC phase, counted once. *)

type gc = {
  mutable cursor : Runtime_events.cursor option;
  mutable depth : int;
  mutable began : int;
  mutable phase : Runtime_events.runtime_phase;
  mutable pause_ns : int;
  mutable lost_events : int;
}

let gc =
  {
    cursor = None;
    depth = 0;
    began = 0;
    phase = Runtime_events.EV_MINOR;
    pause_ns = 0;
    lost_events = 0;
  }

let ts t = Int64.to_int (Runtime_events.Timestamp.to_int64 t)

let callbacks =
  lazy
    (Runtime_events.Callbacks.create
       ~runtime_begin:(fun _ t phase ->
         if gc.depth = 0 then begin
           gc.began <- ts t;
           gc.phase <- phase
         end;
         gc.depth <- gc.depth + 1)
       ~runtime_end:(fun _ t _ ->
         if gc.depth > 0 then begin
           gc.depth <- gc.depth - 1;
           if gc.depth = 0 then begin
             let stop = ts t in
             gc.pause_ns <- gc.pause_ns + (stop - gc.began);
             let s = Lazy.force spans in
             let kind =
               kind_id ~cat:"gc" ("gc." ^ Runtime_events.runtime_phase_name gc.phase)
             in
             ignore (add_span s ~kind ~start:gc.began ~stop)
           end
         end)
       ~lost_events:(fun _ n -> gc.lost_events <- gc.lost_events + n)
       ())

let gc_start () =
  Runtime_events.start ();
  gc.cursor <- Some (Runtime_events.create_cursor None)

let gc_poll () =
  match gc.cursor with
  | None -> ()
  | Some c -> ignore (Runtime_events.read_poll c (Lazy.force callbacks) None)

(* ------------------------------------------------------------------ *)
(* The scheduler layer: one aggregate set of counters over every link
   a workload wraps. Ops on [peek]/[size]/[backlog] are O(1) probes and
   stay untimed — they count as their caller's self time. *)

type ops = {
  mutable enq_calls : int;
  mutable enq_ns : int;
  mutable deq_calls : int;
  mutable deq_ns : int;
  mutable evict_calls : int;
  mutable evict_ns : int;
  mutable close_calls : int;
  mutable close_ns : int;
  mutable max_depth : int;
  (* time and calls of scheduler ops made from inside a timed
     [Buffered] enqueue — subtracted from that enqueue's self time *)
  mutable nested_ns : int;
  mutable nested_calls : int;
  mutable in_outer : bool;
  mutable tick : int;
}

let sched_ops =
  {
    enq_calls = 0;
    enq_ns = 0;
    deq_calls = 0;
    deq_ns = 0;
    evict_calls = 0;
    evict_ns = 0;
    close_calls = 0;
    close_ns = 0;
    max_depth = 0;
    nested_ns = 0;
    nested_calls = 0;
    in_outer = false;
    tick = 0;
  }

let sample_mask = 1023
let poll_every = 4096

let k_enq = lazy (kind_id ~cat:"sched" "sched.enqueue")
let k_deq = lazy (kind_id ~cat:"sched" "sched.dequeue")
let k_evict = lazy (kind_id ~cat:"sched" "sched.evict")
let k_close = lazy (kind_id ~cat:"sched" "sched.close_flow")

(* Account one timed call: nested bookkeeping, a sampled span (one call
   in 1024 per op), and a periodic drain of the GC event ring before it
   can wrap. *)
let account o ~calls ~kind t0 t1 =
  let d = t1 - t0 in
  if o.in_outer then begin
    o.nested_ns <- o.nested_ns + d;
    o.nested_calls <- o.nested_calls + 1
  end;
  if calls land sample_mask = 0 then
    ignore (add_span (Lazy.force spans) ~kind:(Lazy.force kind) ~start:t0 ~stop:t1);
  o.tick <- o.tick + 1;
  if o.tick >= poll_every then begin
    o.tick <- 0;
    gc_poll ()
  end;
  d

let wrap_sched (s : Sched.t) : Sched.t =
  let o = sched_ops in
  {
    s with
    Sched.enqueue =
      (fun ~now p ->
        let t0 = now_ns () in
        s.Sched.enqueue ~now p;
        let t1 = now_ns () in
        o.enq_calls <- o.enq_calls + 1;
        o.enq_ns <- o.enq_ns + account o ~calls:o.enq_calls ~kind:k_enq t0 t1;
        let depth = s.Sched.size () in
        if depth > o.max_depth then o.max_depth <- depth);
    dequeue =
      (fun ~now ->
        let t0 = now_ns () in
        let r = s.Sched.dequeue ~now in
        let t1 = now_ns () in
        o.deq_calls <- o.deq_calls + 1;
        o.deq_ns <- o.deq_ns + account o ~calls:o.deq_calls ~kind:k_deq t0 t1;
        r);
    evict =
      (fun ~now victim flow ->
        let t0 = now_ns () in
        let r = s.Sched.evict ~now victim flow in
        let t1 = now_ns () in
        o.evict_calls <- o.evict_calls + 1;
        o.evict_ns <- o.evict_ns + account o ~calls:o.evict_calls ~kind:k_evict t0 t1;
        r);
    close_flow =
      (fun ~now flow ->
        let t0 = now_ns () in
        let r = s.Sched.close_flow ~now flow in
        let t1 = now_ns () in
        o.close_calls <- o.close_calls + 1;
        o.close_ns <- o.close_ns + account o ~calls:o.close_calls ~kind:k_close t0 t1;
        r);
  }

(* ------------------------------------------------------------------ *)
(* The admission layer: the outer enqueue of a [Buffered] view, timed
   around the inner scheduler calls it makes. [drops] is read after each
   call so allocation can be charged to the calls that dropped. *)

type buffered = {
  mutable b_calls : int;
  mutable b_ns : int;
  mutable b_drop_words : float;
}

let buffered_ops = { b_calls = 0; b_ns = 0; b_drop_words = 0.0 }
let k_buf = lazy (kind_id ~cat:"buffered" "buffered.enqueue")

let wrap_buffered ~(drops : unit -> int) (s : Sched.t) : Sched.t =
  let b = buffered_ops and o = sched_ops in
  {
    s with
    Sched.enqueue =
      (fun ~now p ->
        let d0 = drops () in
        let w0 = Gc.minor_words () in
        o.in_outer <- true;
        let t0 = now_ns () in
        s.Sched.enqueue ~now p;
        let t1 = now_ns () in
        o.in_outer <- false;
        let w1 = Gc.minor_words () in
        b.b_calls <- b.b_calls + 1;
        b.b_ns <- b.b_ns + (t1 - t0);
        if b.b_calls land sample_mask = 0 then
          ignore (add_span (Lazy.force spans) ~kind:(Lazy.force k_buf) ~start:t0 ~stop:t1);
        if drops () > d0 then b.b_drop_words <- b.b_drop_words +. (w1 -. w0));
  }

(* ------------------------------------------------------------------ *)
(* Chrome trace_event JSON (chrome://tracing, Perfetto). *)

let json_string b str =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    str;
  Buffer.add_char b '"'

let write_chrome path ~meta =
  gc_poll ();
  let s = Lazy.force spans in
  let kinds = Array.of_list (List.rev s.kinds) in
  let t_base = if s.n > 0 then Array.fold_left min max_int (Array.sub s.start 0 s.n) else 0 in
  let b = Buffer.create (1 lsl 20) in
  Buffer.add_string b "{\"displayTimeUnit\":\"ns\",\"otherData\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      json_string b k;
      Buffer.add_char b ':';
      json_string b v)
    (meta @ [ ("spans_lost", string_of_int s.lost) ]);
  Buffer.add_string b "},\"traceEvents\":[";
  for i = 0 to s.n - 1 do
    let name, cat = kinds.(s.kind.(i)) in
    if i > 0 then Buffer.add_string b ",\n";
    Buffer.add_string b "{\"name\":";
    json_string b name;
    Buffer.add_string b ",\"cat\":";
    json_string b cat;
    Printf.bprintf b
      ",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
      (if cat = "gc" then 2 else 1)
      (float_of_int (s.start.(i) - t_base) /. 1e3)
      (float_of_int (s.stop.(i) - s.start.(i)) /. 1e3)
      i s.parent.(i)
  done;
  Buffer.add_string b "]}\n";
  let oc = open_out_bin path in
  Buffer.output_buffer oc b;
  close_out oc
