(* The end-to-end benchmark's single command.

     main.exe --workload des_p16|cluster_n8|check --seed N --seconds S
              --trace 0|1

   With [--trace 0] it repeats the workload's fixed, seed-derived work
   for S seconds (at least twice, so every deterministic output is
   checked against a repetition), checks the outputs and reports the
   end-to-end metrics. With [--trace 1] it repeats pairs of an untraced
   and a traced repetition of the same work and reports the per-layer
   metrics and the tracing overhead instead.

   It prints two lines: a report (host, every repetition's values, the
   per-metric sample counts, every output check), then the result
   object: correct, attempted, failed and the metrics. *)

open Common

(* --- the benchmark's definition (mirrors BENCHMARK.json) ------------------ *)

let workloads =
  [
    ( "des_p16",
      "The only workload with a working set far beyond cache and a deep \
       event queue full of fault-tolerance timers." );
    ( "cluster_n8",
      "The only workload on real processes: wire codec, frame syscalls and \
       the parent switch hop do all the work, the simulator none." );
    ( "check",
      "Thousands of tiny set-up-dominated environments over all six \
       algorithms, plus the model checker: the only load on lib/check and \
       lib/model." );
  ]

let end_to_end =
  [ ("setup_s", "s"); ("msgs_per_s", "1/s"); ("acquire_p50_vt", "delta") ]

(* --- helpers ----------------------------------------------------------------- *)

let out_dir = "_e2ebench"

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

(* Repeat [f] until [seconds] have passed, and at least [min] times.
   Untraced workloads repeat at least twice, so that every deterministic
   output is compared with a repetition; a traced repetition is already
   an untraced and a traced run compared with each other. *)
let repeat ?(min = 2) ~seconds f =
  let t0 = now_ns () in
  let rec go acc =
    let acc = f () :: acc in
    if seconds_since t0 >= seconds && List.length acc >= min then List.rev acc
    else go acc
  in
  go []

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let all_equal eq = function [] -> true | x :: rest -> List.for_all (eq x) rest

let med l = median (Array.of_list l)

let per_rep l = summary_json (summarize (Array.of_list l))

let dist a = summary_json (summarize ~keep_values:false a)

let count_obj l = Obj (List.map (fun (k, v) -> (k, Int v)) l)

let sum f l = List.fold_left (fun a x -> a + f x) 0 l

(* Per-layer metrics of several traced repetitions: the median of each
   (counts repeat exactly, so their median is their value). *)
let median_by_name = function
  | [] -> []
  | first :: _ as reps ->
    List.map
      (fun (name, _) -> (name, med (List.map (List.assoc name) reps)))
      first

(* --- des_p16 ------------------------------------------------------------------ *)

let same_des_output (a : Des.run) (b : Des.run) =
  a.quiesced = b.quiesced && a.issued = b.issued && a.entries = b.entries
  && a.abandoned = b.abandoned
  && a.outstanding = b.outstanding && a.violations = b.violations
  && a.messages = b.messages && a.delivered = b.delivered
  && a.dropped = b.dropped && a.by_category = b.by_category
  && a.waits_vt = b.waits_vt
  && Float.equal a.unavailable_vt b.unavailable_vt
  && a.stats = b.stats

(* A wish fails if it is not served, also when the run hits the step cap
   without quiescing; a safety violation fails one more. *)
let des_failed (r : Des.run) = r.abandoned + r.outstanding + r.violations

let des_outputs (r : Des.run) =
  [
    ("quiesced", Bool r.quiesced);
    ("issued", Int r.issued);
    ("entries", Int r.entries);
    ("abandoned", Int r.abandoned);
    ("outstanding", Int r.outstanding);
    ("violations", Int r.violations);
    ("messages", Int r.messages);
    ("messages_by_category", count_obj r.by_category);
    ("token_regenerations", Int r.stats.token_regenerations);
    ("searches_started", Int r.stats.searches_started);
  ]

let des ~seed ~seconds =
  let runs =
    repeat ~seconds (fun () -> Des.scenario ~seed ~traced:false)
  in
  let r = List.hd runs in
  let deterministic = all_equal same_des_output runs in
  let per f = List.map f runs in
  let setup = per (fun (x : Des.run) -> x.setup_s) in
  let mps = per (fun (x : Des.run) -> float_of_int x.messages /. x.run_s) in
  {
    correct = deterministic && r.violations = 0;
    attempted = r.issued;
    failed = des_failed r;
    metrics =
      [
        ("setup_s", med setup);
        ("msgs_per_s", med mps);
        ("acquire_p50_vt", median r.waits_vt);
      ];
    report =
      [
        ("deterministic", Bool deterministic);
        ("repetitions", Int (List.length runs));
        ("outputs", Obj (des_outputs r));
        ("setup_s", per_rep setup);
        ("msgs_per_s", per_rep mps);
        ( "acquires_per_s",
          per_rep (per (fun (x : Des.run) -> float_of_int x.entries /. x.run_s)) );
        ("msgs_per_acquire", Num (ratio r.messages r.entries));
        ("acquire_vt", dist r.waits_vt);
        ("acquire_p90_vt", Num (percentile r.waits_vt 0.90));
        ("unavailable_vt", Num r.unavailable_vt);
        ("acquire_p50_us", per_rep (per (fun (x : Des.run) -> median x.waits_us)));
        ( "acquire_p99_us",
          per_rep (per (fun (x : Des.run) -> percentile x.waits_us 0.99)) );
      ];
  }

let des_traced_rep ~seed =
  let plain = Des.scenario ~seed ~traced:false in
  Des.Tracer.reset ();
  let t = Des.scenario ~seed ~traced:true in
  let module T = Des.Tracer in
  let hook c = Option.value ~default:0 (List.assoc_opt c t.sends_by_hook) in
  let hook_total = List.fold_left (fun a (_, k) -> a + k) 0 t.sends_by_hook in
  let ns i = float_of_int i *. 1e-9 in
  let s = t.stats in
  let layer =
    [
      ("sim.events", float_of_int t.events);
      ("sim.events_per_acquire", ratio t.events t.entries);
      ("sim.peak_pending", float_of_int t.peak_pending);
      ("sim.self_s", t.run_s -. ns !T.top_ns);
      ("net.sends", float_of_int t.messages);
      ("net.delivered", float_of_int t.delivered);
      ("net.dropped", float_of_int t.dropped);
      ("net.send_s", ns T.total_ns.(T.send));
    ]
    @ List.map (fun c -> ("net.sends." ^ c, float_of_int (hook c))) categories
    @ [
        ("mutex.handler_calls", float_of_int !T.handler_calls);
        ( "mutex.handler_self_s",
          ns (T.self_ns.(T.handler) + T.self_ns.(T.timer) + T.self_ns.(T.api)) );
        ("mutex.timers_set", float_of_int !T.timers_set);
        ("mutex.timers_cancelled", float_of_int !T.timers_cancelled);
        ("mutex.timers_fired", float_of_int !T.timers_fired);
        ("mutex.useful_share", ratio (hook "request" + hook "token") hook_total);
        ("mutex.searches_started", float_of_int s.searches_started);
        ("mutex.search_nodes_tested", float_of_int s.search_nodes_tested);
        ("mutex.token_regenerations", float_of_int s.token_regenerations);
        ("mutex.unavailable_vt", t.unavailable_vt);
        ("trace.overhead_s", t.run_s -. plain.run_s);
      ]
  in
  let ok =
    t.messages = plain.messages && t.entries = plain.entries
    && hook_total = t.messages && t.violations = 0
  in
  (ok, plain, t, layer)

let des_traced ~seed ~seconds =
  let reps = repeat ~min:1 ~seconds (fun () -> des_traced_rep ~seed) in
  let module T = Des.Tracer in
  let spans_file = Filename.concat out_dir "spans-des_p16.tsv" in
  T.write_tsv spans_file;
  let _, plain, t, _ = List.hd reps in
  let ok = List.for_all (fun (ok, _, _, _) -> ok) reps in
  {
    correct = ok;
    attempted = t.issued;
    failed = des_failed t;
    metrics = median_by_name (List.map (fun (_, _, _, l) -> l) reps);
    report =
      [
        ("traced_reproduces_untraced", Bool ok);
        ("repetitions", Int (List.length reps));
        ("untraced_run_s", per_rep (List.map (fun (_, p, _, _) -> p.Des.run_s) reps));
        ("traced_run_s", per_rep (List.map (fun (_, _, t, _) -> t.Des.run_s) reps));
        ("spans_last_rep", Int !T.next_id);
        ("spans_written", Int (T.stored ()));
        ("spans_file", Str spans_file);
        ("outputs", Obj (des_outputs plain));
      ];
  }

(* --- cluster_n8 --------------------------------------------------------------- *)

let cluster_ok (r : Cluster_wl.run) = Result.is_ok r.clean

(* A wish fails if it is not served; a run that is not oracle-clean
   fails all its wishes. *)
let cluster_failed (r : Cluster_wl.run) =
  if cluster_ok r then r.wishes - r.served else r.wishes

let cluster ~seconds =
  let reference = Cluster_wl.des_digests () in
  let runs = repeat ~seconds (fun () -> Cluster_wl.run ~metrics:false) in
  let r = List.hd runs in
  let digests_ok =
    List.for_all (fun (x : Cluster_wl.run) -> x.digests = reference) runs
  in
  let clean = List.for_all cluster_ok runs in
  let per f = List.map f runs in
  let lat = Samples.create () in
  List.iter (fun (x : Cluster_wl.run) -> Array.iter (Samples.add lat) x.latencies_us) runs;
  let lat = Samples.to_array lat in
  let setup = per (fun (x : Cluster_wl.run) -> x.setup_s) in
  let mps = per (fun (x : Cluster_wl.run) -> float_of_int x.messages /. x.acquire_s) in
  {
    correct = clean && digests_ok;
    attempted = sum (fun (x : Cluster_wl.run) -> x.wishes) runs;
    failed = sum cluster_failed runs;
    metrics =
      [
        ("setup_s", med setup);
        (* The cluster's rate swings up to 4x within one run as the host
           schedules its vCPUs; the 90th percentile over runs is the rate
           it reaches when the scheduler does not intervene, and it moves
           with the code as much as the median does. *)
        ("msgs_per_s", percentile (Array.of_list mps) 0.90);
        ("acquire_p50_vt", median lat /. Cluster_wl.delta_us);
      ];
    report =
      [
        ("oracle_clean", Bool clean);
        ( "oracle_errors",
          Arr
            (List.filter_map
               (fun (x : Cluster_wl.run) ->
                 match x.clean with Ok () -> None | Error e -> Some (Str e))
               runs) );
        ("digests_match_des", Bool digests_ok);
        ("repetitions", Int (List.length runs));
        ("acquires_per_rep", Int r.entries);
        ("setup_s", per_rep setup);
        ("msgs_per_s", per_rep mps);
        ( "acquires_per_s",
          per_rep (per (fun (x : Cluster_wl.run) -> float_of_int x.entries /. x.acquire_s)) );
        ("msgs_per_acquire", Num (ratio r.messages r.entries));
        ("acquire_us", dist lat);
        ("cluster_run_s", per_rep (per (fun (x : Cluster_wl.run) -> x.wall_s)));
      ];
  }

let cluster_traced_rep () =
  let plain = Cluster_wl.run ~metrics:false in
  let t = Cluster_wl.run ~metrics:true in
  let enc, dec = Cluster_wl.codec_ns t.by_category in
  let mpa = ratio t.messages t.entries in
  let layer =
    [
      ("wire.encode_ns", enc);
      ("wire.decode_ns", dec);
      ("proc.hop_us", median t.latencies_us /. mpa);
      ("proc.frames", float_of_int t.frames);
      ("proc.fork_s", t.setup_s);
      ("proc.reap_s", t.reap_s);
      ("trace.overhead_s", t.wall_s -. plain.wall_s);
    ]
  in
  let ok =
    t.messages = plain.messages && t.entries = plain.entries && cluster_ok t
    && cluster_ok plain
  in
  (ok, plain, t, layer)

let cluster_traced ~seconds =
  let reps = repeat ~min:1 ~seconds cluster_traced_rep in
  let _, _, t, _ = List.hd reps in
  let ok = List.for_all (fun (ok, _, _, _) -> ok) reps in
  {
    correct = ok;
    attempted = sum (fun (_, p, t, _) -> p.Cluster_wl.wishes + t.Cluster_wl.wishes) reps;
    failed = sum (fun (_, p, t, _) -> cluster_failed p + cluster_failed t) reps;
    metrics = median_by_name (List.map (fun (_, _, _, l) -> l) reps);
    report =
      [
        ("traced_reproduces_untraced", Bool ok);
        ("repetitions", Int (List.length reps));
        ( "untraced_run_s",
          per_rep (List.map (fun (_, p, _, _) -> p.Cluster_wl.wall_s) reps) );
        ("traced_run_s", per_rep (List.map (fun (_, _, t, _) -> t.Cluster_wl.wall_s) reps));
        ("msgs_per_acquire", Num (ratio t.messages t.entries));
        ("messages_by_category", count_obj t.by_category);
      ];
  }

(* --- check ---------------------------------------------------------------------- *)

type check_rep = { fz : Check_wl.fuzz_run; mc : (Check_wl.mc_run, string) result }

let model_check () =
  match Check_wl.model_check () with
  | m -> Ok m
  | exception Ocube_model.Explore.Violation v ->
    Error v.Ocube_model.Explore.message

(* A scenario fails on an oracle violation; the model check fails on an
   invariant violation. *)
let check_failed r =
  List.length r.fz.failures + match r.mc with Ok _ -> 0 | Error _ -> 1

let low56 c = c land 0xff_ffff_ffff_ffff

(* The output checks: the fuzz checksum repeats, matches the library's
   own campaign on the prefix and the recorded value for this seed (if
   one is recorded); the model check finds the recorded state count. *)
let check_outputs ~seed reps =
  let first = List.hd reps in
  let repeats =
    all_equal
      (fun a b -> a.fz.checksum = b.fz.checksum && a.fz.failures = b.fz.failures)
      reps
  in
  let prefix_ok =
    match Check_wl.campaign_prefix_checksum ~seed with
    | Some c -> c = first.fz.prefix_checksum
    | None -> first.fz.failures <> []
  in
  let recorded = List.assoc_opt seed Check_wl.recorded_checksums in
  let recorded_ok =
    match recorded with None -> true | Some v -> v = low56 first.fz.checksum
  in
  let states_ok =
    List.for_all
      (fun r ->
        match r.mc with
        | Ok m -> m.stats.states = Check_wl.mc_expected_states
        | Error _ -> false)
      reps
  in
  ( repeats && prefix_ok && recorded_ok && states_ok,
    [
      ("fuzz_checksum", Str (Printf.sprintf "%014x" (low56 first.fz.checksum)));
      ("fuzz_checksum_repeats", Bool repeats);
      ("campaign_prefix_match", Bool prefix_ok);
      ( "recorded_checksum_match",
        match recorded with None -> Null | Some _ -> Bool recorded_ok );
      ("mc_states_match", Bool states_ok);
    ] )

let mc_rate (m : Check_wl.mc_run) = float_of_int m.stats.states /. m.mc_wall_s

let check ~seed ~seconds =
  let reps =
    repeat ~seconds (fun () ->
        let fz = Check_wl.fuzz ~seed ~trace:false in
        { fz; mc = model_check () })
  in
  let correct, checks = check_outputs ~seed reps in
  let r = List.hd reps in
  let per f = List.map (fun x -> f x.fz) reps in
  (* The whole pass is the work: fuzz messages plus model-check
     transitions (each an explored protocol step, nearly all of them a
     message delivery), so a slower lib/model shows here too. *)
  let mps =
    List.map
      (fun x ->
        let steps, secs =
          match x.mc with
          | Ok m -> (m.stats.transitions, m.mc_wall_s)
          | Error _ -> (0, 0.0)
        in
        float_of_int (x.fz.messages + steps) /. (x.fz.wall_s +. secs))
      reps
  in
  let setup = Samples.create () in
  List.iter (fun x -> Array.iter (Samples.add setup) x.fz.setup_samples) reps;
  let setup = Samples.to_array setup in
  {
    correct;
    attempted = r.fz.ran + 1;
    failed = check_failed r;
    metrics =
      [
        ("setup_s", median setup);
        ("msgs_per_s", med mps);
        ("acquire_p50_vt", median r.fz.waits_vt);
      ];
    report =
      checks
      @ [
          ("repetitions", Int (List.length reps));
          ("fuzz_scenarios", Int r.fz.ran);
          ( "fuzz_failures",
            Arr
              (List.map
                 (fun (i, e) -> Obj [ ("index", Int i); ("error", Str e) ])
                 r.fz.failures) );
          ( "mc_states",
            match r.mc with Ok m -> Int m.stats.states | Error e -> Str e );
          ("setup_s", dist setup);
          ("msgs_per_s", per_rep mps);
          ("fuzz_scenarios_per_s", per_rep (per (fun f -> float_of_int f.ran /. f.wall_s)));
          ( "mc_states_per_s",
            per_rep
              (List.filter_map
                 (fun x -> match x.mc with Ok m -> Some (mc_rate m) | Error _ -> None)
                 reps) );
          ("acquires_per_s", per_rep (per (fun f -> float_of_int f.entries /. f.wall_s)));
          ("msgs_per_acquire", Num (ratio r.fz.messages r.fz.entries));
          ("acquire_vt", dist r.fz.waits_vt);
          ];
  }

let check_traced_rep ~seed =
  let plain = Check_wl.fuzz ~seed ~trace:false in
  let t = Check_wl.fuzz ~seed ~trace:true in
  let mc = model_check () in
  let c = Option.get t.counters in
  let sends k = Option.value ~default:0 (Hashtbl.find_opt c.sends k) in
  let hook_total = Hashtbl.fold (fun _ k a -> a + k) c.sends 0 in
  let mstat f = match mc with Ok m -> f m | Error _ -> 0.0 in
  let layer =
    [
      ("sim.events", float_of_int c.events);
      ("sim.events_per_acquire", ratio c.events t.entries);
      ("sim.peak_pending", float_of_int c.peak_pending);
      ("net.sends", float_of_int hook_total);
      ("net.delivered", float_of_int t.delivered);
      ("net.dropped", float_of_int t.dropped);
    ]
    @ List.map (fun k -> ("net.sends." ^ k, float_of_int (sends k))) categories
    @ [
        ("check.gen_s", t.gen_s);
        ("check.build_s", t.build_s);
        ("check.run_s", t.wall_s -. t.gen_s -. t.build_s);
        ("check.messages", float_of_int t.messages);
        ("check.scenarios_per_s", float_of_int plain.ran /. plain.wall_s);
        ("model.states", mstat (fun m -> float_of_int m.stats.states));
        ("model.transitions", mstat (fun m -> float_of_int m.stats.transitions));
        ("model.reduction", mstat (fun m -> ratio m.stats.orbit_states m.stats.states));
        ("model.max_depth", mstat (fun m -> float_of_int m.stats.max_depth));
        ("model.states_per_s", mstat mc_rate);
        ("trace.overhead_s", t.wall_s -. plain.wall_s);
      ]
  in
  let ok = plain.checksum = t.checksum && hook_total = t.messages in
  (ok, { fz = t; mc }, plain, layer)

let check_traced ~seed ~seconds =
  let reps = repeat ~min:1 ~seconds (fun () -> check_traced_rep ~seed) in
  let _, r, _, _ = List.hd reps in
  let ok = List.for_all (fun (ok, _, _, _) -> ok) reps in
  {
    correct = ok;
    attempted = r.fz.ran + 1;
    failed = check_failed r;
    metrics = median_by_name (List.map (fun (_, _, _, l) -> l) reps);
    report =
      [
        ("traced_reproduces_untraced", Bool ok);
        ("repetitions", Int (List.length reps));
        ("untraced_fuzz_s", per_rep (List.map (fun (_, _, p, _) -> p.Check_wl.wall_s) reps));
        ("traced_fuzz_s", per_rep (List.map (fun (_, t, _, _) -> t.fz.wall_s) reps));
      ];
  }

(* --- command line ----------------------------------------------------------- *)

let usage =
  "usage: main.exe --workload des_p16|cluster_n8|check --seed N --seconds S \
   --trace 0|1"

let fail msg =
  prerr_endline msg;
  prerr_endline usage;
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string_opt v;
      parse rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
      parse rest
    | arg :: _ -> fail ("unexpected argument " ^ arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed = match !seed with Some s -> s | None -> fail "--seed N required" in
  let seconds =
    match !seconds with
    | Some s when s > 0.0 -> s
    | _ -> fail "--seconds S (S > 0) required"
  in
  let trace = match !trace with Some t -> t | None -> fail "--trace 0|1 required" in
  let why =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None -> fail ("unknown workload " ^ !workload)
  in
  (* Cluster.run creates its lock witness in the temp directory: keep it
     inside the working tree, next to the span dump. *)
  ensure_dir out_dir;
  let tmp = Filename.concat out_dir "tmp" in
  ensure_dir tmp;
  Filename.set_temp_dir_name tmp;
  let t0 = now_ns () in
  (* No workload spawns a domain: the process cluster forks, and OCaml 5
     forbids fork once a domain has been spawned. *)
  let r =
    match (!workload, trace) with
    | "des_p16", false -> des ~seed ~seconds
    | "des_p16", true -> des_traced ~seed ~seconds
    | "cluster_n8", false -> cluster ~seconds
    | "cluster_n8", true -> cluster_traced ~seconds
    | "check", false -> check ~seed ~seconds
    | _, _ -> check_traced ~seed ~seconds
  in
  let names = if trace then per_layer_names else end_to_end in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = Option.value ~default:0.0 (List.assoc_opt name r.metrics) in
        (name, Obj [ ("value", Num v); ("unit", Str unit) ]))
      names
  in
  let report =
    [
      ("workload", Str !workload);
      ("why", Str why);
      ("seed", Int seed);
      ("seconds", Num seconds);
      ("trace", Bool trace);
      ("wall_s", Num (seconds_since t0));
      ("peak_rss_mb", Num (peak_rss_mb ()));
      ("host", host ());
      ("metrics", Obj metrics);
    ]
    @ r.report
  in
  print_endline (to_string (Obj [ ("report", Obj report) ]));
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool r.correct);
            ("attempted", Int r.attempted);
            ("failed", Int r.failed);
            ("metrics", Obj metrics);
          ]))
