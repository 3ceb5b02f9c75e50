(* One repetition of one benchmark workload, in a fresh process.

     bench.exe --workload W --seed N [--trace FILE] [--cell C] [--crosscheck]

   Prints one JSON object: the host-time measures of the timed window
   (wall seconds, work items, minor words, peak RSS), the wall-clock
   instant the window opened (run.py derives set-up time from it),
   the simulated outputs as a digest, and the output checks. With
   [--trace FILE] the layers are timed (see probe.ml), GC phases are
   read from the runtime's event ring, the per-layer counters join the
   JSON, and the spans are written to FILE as Chrome trace_event JSON.
   perfbench/run.py drives repetitions and aggregates. *)

open Sfq_base
open Sfq_experiments

let workload = ref ""
let seed = ref 1
let trace_out = ref ""
let cell = ref ""
let crosscheck = ref false

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "star-churn | link-overload | link-lqd | paper");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--trace", Arg.Set_string trace_out, "FILE  time the layers; write spans to FILE");
      ("--cell", Arg.Set_string cell, "sfq-r0 | fifo-r0 | fifo  star-churn subtraction cell");
      ("--crosscheck", Arg.Set crosscheck, " link-*: also run float SFQ on the same inputs");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N"

let traced () = !trace_out <> ""

(* ------------------------------------------------------------------ *)
(* Measures of one timed window. *)

type window = {
  opened_at : float;  (* Unix time the window opened *)
  wall_s : float;
  minor_words : float;
  gc0 : Gc.stat;
  gc1 : Gc.stat;
  peak_rss_kb : int;
}

(* VmHWM: this process's peak resident set — a fresh process per
   repetition makes it a per-repetition peak. *)
let vm_hwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb -> Some kb)
      | _ -> scan ()
    in
    let r = scan () in
    close_in ic;
    r

let timed f =
  let gc0 = Gc.quick_stat () in
  let opened_at = Unix.gettimeofday () in
  let t0 = Probe.now_ns () in
  let w0 = Gc.minor_words () in
  let r = f () in
  let w1 = Gc.minor_words () in
  let t1 = Probe.now_ns () in
  let gc1 = Gc.quick_stat () in
  let peak_rss_kb =
    match vm_hwm_kb () with
    | Some kb -> kb
    | None -> gc1.Gc.top_heap_words * (Sys.word_size / 8) / 1024
  in
  ( r,
    {
      opened_at;
      wall_s = float_of_int (t1 - t0) /. 1e9;
      minor_words = w1 -. w0;
      gc0;
      gc1;
      peak_rss_kb;
    } )

(* ------------------------------------------------------------------ *)
(* JSON output *)

type json = F of float | I of int | S of string | B of bool | O of (string * json) list

let rec emit b = function
  | F x -> if Float.is_finite x then Printf.bprintf b "%.17g" x else Buffer.add_string b "null"
  | I n -> Printf.bprintf b "%d" n
  | S s -> Probe.json_string b s
  | B v -> Buffer.add_string b (if v then "true" else "false")
  | O kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Probe.json_string b k;
        Buffer.add_char b ':';
        emit b v)
      kvs;
    Buffer.add_char b '}'

let checks_json cs = O (List.map (fun (n, ok) -> (n, B ok)) cs)

(* Per-layer counters common to every traced workload. *)
let sched_layer () =
  let o = Probe.sched_ops in
  [
    ("sched.enqueue_calls", I o.enq_calls);
    ("sched.enqueue_total_ns", I o.enq_ns);
    ("sched.dequeue_calls", I o.deq_calls);
    ("sched.dequeue_total_ns", I o.deq_ns);
    ("sched.evict_calls", I o.evict_calls);
    ("sched.evict_total_ns", I o.evict_ns);
    ("sched.close_calls", I o.close_calls);
    ("sched.close_total_ns", I o.close_ns);
    ("sched.max_depth", I o.max_depth);
    ("sched.nested_ns", I o.nested_ns);
    ("sched.nested_calls", I o.nested_calls);
    ("buffered.calls", I Probe.buffered_ops.b_calls);
    ("buffered.total_ns", I Probe.buffered_ops.b_ns);
    ("buffered.drop_words", F Probe.buffered_ops.b_drop_words);
  ]

let gc_layer w =
  [
    ("gc.minor_collections", I (w.gc1.Gc.minor_collections - w.gc0.Gc.minor_collections));
    ("gc.major_collections", I (w.gc1.Gc.major_collections - w.gc0.Gc.major_collections));
    ("gc.promoted_words", F (w.gc1.Gc.promoted_words -. w.gc0.Gc.promoted_words));
    ("gc.top_heap_words", I w.gc1.Gc.top_heap_words);
    ("gc.pause_ns", I Probe.gc.pause_ns);
    ("gc.lost_events", I Probe.gc.lost_events);
  ]

let kb_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1024.0

(* ------------------------------------------------------------------ *)
(* star-churn: the E27 churned star. *)

let star_flows = 100_000

let star_scenario () =
  let disc, reserved =
    match !cell with
    | "" -> (Disc.Sfq_fast, None)
    | "sfq-r0" -> (Disc.Sfq_fast, Some 0)
    | "fifo-r0" -> (Disc.Fifo, Some 0)
    | "fifo" -> (Disc.Fifo, None)
    | c -> failwith ("unknown cell " ^ c)
  in
  Net_sweep.scale_star ~flows:star_flows ~disc ?reserved ~seed:!seed ()

(* The link weights [Net_sweep.run_raw] builds for a scenario; the
   traced run rebuilds each link itself through [~mk_link], so it must
   hand the discipline the same weights. The traced-equals-untraced
   digest check catches any drift. *)
let star_weights (s : Net_sweep.scenario) =
  let bg_ids = if s.churn then min s.window s.flows else s.flows in
  let c_min = Float.min s.access_rate s.core_rate in
  let r_res = if s.reserved = 0 then 0.0 else c_min /. (4.0 *. float_of_int s.reserved) in
  let r_bg = c_min /. (4.0 *. float_of_int (max 1 bg_ids)) in
  Weights.of_list ~default:r_bg (List.init s.reserved (fun i -> (i, r_res)))

let star () =
  let s = star_scenario () in
  let links = ref [] in
  let run () =
    if not (traced ()) then Net_sweep.run_scenario s
    else begin
      let w = star_weights s in
      Probe.with_span ~cat:"netsim" "star-churn" (fun () ->
          Net_sweep.run_raw
            ~mk_link:(fun _ ~rate:_ ->
              let l = Disc.make s.disc w in
              links := l :: !links;
              Probe.wrap_sched l)
            s)
    end
  in
  let o, w = timed run in
  let checks =
    [
      ("no-violation", o.violations = []);
      ("in-flight-zero", o.in_flight = 0);
      ("delivered", o.delivered > 0);
    ]
    (* the composed oracle runs on SFQ links with reserved flows only *)
    @
    match s.disc with
    | Disc.Sfq_fast when s.reserved > 0 -> [ ("e2e-checked", o.e2e_checked > 0) ]
    | _ -> []
  in
  let layers =
    if not (traced ()) then []
    else
      let words = List.fold_left (fun a l -> a + Obj.reachable_words (Obj.repr l)) 0 !links in
      [
        ("links", I (List.length !links));
        ("sched.state_kb", F (kb_of_words words));
        ("registry.high_water", I o.high_water);
        ("registry.peak_live", I o.peak_live);
        ("oracle.checked", I o.e2e_checked);
      ]
  in
  (w, o.delivered, Net_sweep.outcome_digest o, checks, layers)

(* ------------------------------------------------------------------ *)
(* link-overload / link-lqd *)

let link policy =
  let inp = Link.generate ~seed:!seed in
  let run () =
    if not (traced ()) then Link.run ~disc:Disc.Sfq_fast ~policy inp
    else
      Probe.with_span ~cat:"link" (Buffered.policy_name policy) (fun () ->
          Link.run ~inner:Probe.wrap_sched ~outer:Probe.wrap_buffered ~disc:Disc.Sfq_fast
            ~policy inp)
  in
  let (o, s, link), w = timed run in
  let digest = Link.digest o in
  let checks = Link.checks inp o s in
  let checks =
    if not !crosscheck then checks
    else begin
      let f, fs, _ = Link.run ~disc:Disc.Sfq ~policy inp in
      checks
      @ [
          ("float-sfq-digest", Link.digest f = digest);
          ("float-sfq-checks", List.for_all snd (Link.checks inp f fs));
        ]
    end
  in
  let layers =
    if not (traced ()) then []
    else
      [
        ("buffered.drops", I o.Link.dropped.n);
        ("sched.state_kb", F (kb_of_words (Obj.reachable_words (Obj.repr link))));
      ]
  in
  (w, Link.arrivals, digest, checks, layers)

(* ------------------------------------------------------------------ *)
(* paper: the E1-E20 registry entries at full size, default seeds, in
   registry order. Their inputs are the experiments' own default-seeded
   ones, so the workload seed changes nothing here: the digests are
   pinned for exactly those inputs. The order stays fixed too: peak RSS
   depends on which experiment runs on whose garbage.

   [pinned] holds [Registry.digest ~quick:false] of each entry under its
   default seed, sorted by id. A changed digest means the experiment
   computed something different — an output failure, not a timing. *)
let pinned =
  [
    ("bounds", "ffabb590d9c194ef1444ad68b3d2b991");
    ("busy-rule", "de2a58c1ae6194918ef3c66a9f73dc20");
    ("delay-shift", "333e0ef299eaa7bf87bd1d86eebc172d");
    ("e2e", "d4740b86419463b8c97c93855aa27d74");
    ("e2e-ebf", "a02115e0fceb7770ab11d4aec3f7e36e");
    ("example-1", "4ba47eabedbd70fa49574300b0cbe35d");
    ("example-2", "81fbe2ec5fd7fe1c894965e036d337cb");
    ("fair-airport", "0f7fa365fbcd5e0c715781141410033a");
    ("fig-1-topology", "177f380d0b07d67fc9c5e2968058be92");
    ("fig-1b", "bf2c7193a3666b0a166368e8a64b0b08");
    ("fig-2a", "3d497e8b7c3a9e8b25053190a9fc873d");
    ("fig-2b", "81b3598481e840ae19b6b03b94c14ba3");
    ("fig-3b", "d91ea302131409b1ab9dfe5266df8417");
    ("gsfq", "e202e6e88f67db667ed0e69abaa3a5ec");
    ("hier-sharing", "316c5cf1aff43c84acce1bfe6ebf63e6");
    ("residual", "fd0f1bc92ff41506f707e95dd68037f7");
    ("scfq-gap", "4a1e5507bf0811ece5ee059aae1f48fc");
    ("table-1", "7eee78048c31438f584775b29484dcb9");
    ("tie-break", "b9d35827a21d7ac9a7035fb99aa8f827");
  ]

let paper_entries () =
  List.filter
    (fun (e : Registry.entry) ->
      Scanf.sscanf_opt e.title "E%d " (fun n -> n <= 20) = Some true)
    Registry.all

let paper () =
  let entries = Array.of_list (paper_entries ()) in
  let times = ref [] in
  let run () =
    Array.map
      (fun (e : Registry.entry) ->
        if not (traced ()) then (e.id, Registry.digest e ~quick:false ())
        else begin
          let t0 = Probe.now_ns () in
          let d = Probe.with_span ~cat:"paper" e.id (fun () -> Registry.digest e ~quick:false ()) in
          times := (e.id, Probe.now_ns () - t0) :: !times;
          Probe.gc_poll ();
          (e.id, d)
        end)
      entries
  in
  let digests, w = timed run in
  let digests = List.sort compare (Array.to_list digests) in
  let checks =
    ("entries-match-pins", List.map fst digests = List.map fst pinned)
    :: List.map (fun (id, d) -> ("digest." ^ id, List.assoc_opt id pinned = Some d)) digests
  in
  let layers = List.map (fun (id, ns) -> ("paper." ^ id ^ "_ns", I ns)) (List.rev !times) in
  (w, Array.length entries, String.concat "," (List.map snd digests), checks, layers)

(* ------------------------------------------------------------------ *)

let () =
  let clock_ns = if traced () then Probe.calibrate_clock () else 0.0 in
  if traced () then Probe.gc_start ();
  let w, items, digest, checks, layers =
    match !workload with
    | "star-churn" -> star ()
    | "link-overload" -> link Buffered.Drop_front
    | "link-lqd" -> link Buffered.Longest_queue
    | "paper" -> paper ()
    | other ->
      prerr_endline ("bench.exe: unknown workload " ^ other);
      exit 2
  in
  let layers =
    if not (traced ()) then []
    else begin
      Probe.gc_poll ();
      Probe.write_chrome !trace_out
        ~meta:[ ("workload", !workload); ("seed", string_of_int !seed) ];
      [ ("trace.clock_ns", F clock_ns) ] @ sched_layer () @ gc_layer w @ layers
    end
  in
  let b = Buffer.create 4096 in
  emit b
    (O
       ([
          ("workload", S !workload);
          ("seed", I !seed);
          ("ocaml", S Sys.ocaml_version);
          ("opened_at", F w.opened_at);
          ("wall_s", F w.wall_s);
          ("items", I items);
          ("minor_words", F w.minor_words);
          ("peak_rss_kb", I w.peak_rss_kb);
          ("digest", S digest);
          ("checks", checks_json checks);
        ]
       @ if layers = [] then [] else [ ("layers", O layers) ]));
  print_endline (Buffer.contents b)
