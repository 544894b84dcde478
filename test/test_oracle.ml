(* The fuzz oracle's per-event check reads counters that every protocol
   core keeps at the one setter of its token and in-CS flags. This suite
   holds those counters to the full-N scans they replaced: a step hook
   compares, after every simulated event, each core's counters with a
   scan of its per-node state, and its [invariant_check] with the
   scan-based reference check below. It runs over fuzz prefixes of all
   six algorithms (crash-and-recover open-cube scenarios included), a
   direct-API crash/recover run with the token holder killed, and the
   generic scheme's three rules. A last test pins the oracle's passing
   path at zero allocation. *)

open Ocube_mutex
module Scenario = Ocube_check.Scenario
module Fuzz = Ocube_check.Fuzz
module Oracle = Ocube_check.Oracle
module Engine = Ocube_sim.Engine
module Static_tree = Ocube_topology.Static_tree

let checkb = Alcotest.(check bool)

let count_scan n f =
  let c = ref 0 in
  for i = 0 to n - 1 do
    if f i then incr c
  done;
  !c

(* --- the scan-based reference checks ----------------------------------------

   The bodies the counter-based [invariant_check]s replaced: holders from
   [token_holders] (a scan, which for the open cube skips failed nodes),
   the in-CS count from a scan of [in_cs]; same clauses, same order, same
   messages. *)

let holders_clause holders =
  if List.length holders > 1 then Error (Types.simultaneous_holders holders)
  else Ok ()

let ref_token_count ~holders ~in_cs ~in_flight =
  let h = List.length holders in
  if in_cs > 1 then Error "mutual exclusion violated: >1 node in CS"
  else if h + in_flight <> 1 then
    Error (Printf.sprintf "token count %d should be 1" (h + in_flight))
  else holders_clause holders

let ref_opencube ~holders ~in_cs ~in_flight =
  let h = List.length holders in
  if in_cs > 1 then Error "mutual exclusion violated: >1 node in CS"
  else if h + in_flight <> 1 then
    Error
      (Printf.sprintf "token count %d (held %d + in flight %d) should be 1"
         (h + in_flight) h in_flight)
  else holders_clause holders

let ref_raymond ~holders ~using ~in_flight =
  let h = List.length holders in
  if using > 1 then Error "mutual exclusion violated: >1 node using"
  else if in_flight = 0 && h <> 1 then
    Error (Printf.sprintf "%d self-holders with no token in flight" h)
  else if in_flight + h < 1 then Error "token vanished"
  else holders_clause holders

let ref_in_cs_only ~in_cs =
  if in_cs > 1 then Error "mutual exclusion violated: >1 node in CS"
  else Ok ()

(* One core seen three ways: its counters, the same quantities by scans,
   and its check against the reference. *)
type probe = {
  holder_count : unit -> int;
  holder_scan : unit -> int;
  in_cs_count : unit -> int;
  in_cs_scan : unit -> int;
  check : unit -> (unit, string) result;
  reference : unit -> (unit, string) result;
}

let show = function Ok () -> "Ok" | Error m -> "Error " ^ m

let same_result a b =
  match (a, b) with
  | Ok (), Ok () -> true
  | Error x, Error y -> String.equal x y
  | Ok (), Error _ | Error _, Ok () -> false

(* [None] when the counters, the scans and both checks agree. *)
let disagreement pr =
  let hc = pr.holder_count () and hs = pr.holder_scan () in
  let cc = pr.in_cs_count () and cs = pr.in_cs_scan () in
  if hc <> hs then Some (Printf.sprintf "holder count %d, scan %d" hc hs)
  else if cc <> cs then Some (Printf.sprintf "in-CS count %d, scan %d" cc cs)
  else
    let c = pr.check () and r = pr.reference () in
    if same_result c r then None
    else Some (Printf.sprintf "invariant_check %s, reference %s" (show c) (show r))

let opencube_probe a n =
  let module A = Opencube_algo in
  {
    holder_count = (fun () -> A.token_holder_count a);
    holder_scan = (fun () -> List.length (A.token_holders a));
    in_cs_count = (fun () -> A.in_cs_count a);
    in_cs_scan = (fun () -> count_scan n (A.in_cs a));
    check = (fun () -> A.invariant_check a);
    reference =
      (fun () ->
        ref_opencube ~holders:(A.token_holders a)
          ~in_cs:(count_scan n (A.in_cs a))
          ~in_flight:(A.tokens_in_flight a));
  }

let raymond_probe a n =
  let module A = Raymond in
  {
    holder_count = (fun () -> A.token_holder_count a);
    holder_scan = (fun () -> List.length (A.token_holders a));
    in_cs_count = (fun () -> A.in_cs_count a);
    in_cs_scan = (fun () -> count_scan n (A.in_cs a));
    check = (fun () -> A.invariant_check a);
    reference =
      (fun () ->
        ref_raymond ~holders:(A.token_holders a)
          ~using:(count_scan n (A.in_cs a))
          ~in_flight:(A.tokens_in_flight a));
  }

let naimi_trehel_probe a n =
  let module A = Naimi_trehel in
  {
    holder_count = (fun () -> A.token_holder_count a);
    holder_scan = (fun () -> List.length (A.token_holders a));
    in_cs_count = (fun () -> A.in_cs_count a);
    in_cs_scan = (fun () -> count_scan n (A.in_cs a));
    check = (fun () -> A.invariant_check a);
    reference =
      (fun () ->
        ref_token_count ~holders:(A.token_holders a)
          ~in_cs:(count_scan n (A.in_cs a))
          ~in_flight:(A.tokens_in_flight a));
  }

let suzuki_kasami_probe a n =
  let module A = Suzuki_kasami in
  {
    holder_count = (fun () -> A.token_holder_count a);
    holder_scan = (fun () -> List.length (A.token_holders a));
    in_cs_count = (fun () -> A.in_cs_count a);
    in_cs_scan = (fun () -> count_scan n (A.in_cs a));
    check = (fun () -> A.invariant_check a);
    reference =
      (fun () ->
        ref_token_count ~holders:(A.token_holders a)
          ~in_cs:(count_scan n (A.in_cs a))
          ~in_flight:(A.tokens_in_flight a));
  }

let generic_probe g n =
  let module A = Generic_scheme in
  {
    holder_count = (fun () -> A.token_holder_count g);
    holder_scan = (fun () -> List.length (A.token_holders g));
    in_cs_count = (fun () -> A.in_cs_count g);
    in_cs_scan = (fun () -> count_scan n (A.in_cs g));
    check = (fun () -> A.invariant_check g);
    reference =
      (fun () ->
        ref_token_count ~holders:(A.token_holders g)
          ~in_cs:(count_scan n (A.in_cs g))
          ~in_flight:(A.tokens_in_flight g));
  }

let central_probe a n =
  let module A = Central in
  {
    holder_count = (fun () -> A.token_holder_count a);
    holder_scan = (fun () -> List.length (A.token_holders a));
    in_cs_count = (fun () -> A.in_cs_count a);
    in_cs_scan = (fun () -> count_scan n (A.in_cs a));
    check = (fun () -> A.invariant_check a);
    reference = (fun () -> ref_in_cs_only ~in_cs:(count_scan n (A.in_cs a)));
  }

let ricart_agrawala_probe a n =
  let module A = Ricart_agrawala in
  {
    holder_count = (fun () -> 0);
    holder_scan = (fun () -> 0);
    in_cs_count = (fun () -> A.in_cs_count a);
    in_cs_scan = (fun () -> count_scan n (A.in_cs a));
    check = (fun () -> A.invariant_check a);
    reference = (fun () -> ref_in_cs_only ~in_cs:(count_scan n (A.in_cs a)));
  }

(* Per-run tallies, summed over a whole campaign. *)
type tally = { mutable steps : int; mutable steps_with_failed : int }

(* After every event: counters = scans and check = reference, or the run
   aborts with the disagreement as its violation. *)
let watch tally env pr =
  let net = Runner.net env in
  ignore
    (Engine.add_step_hook (Runner.engine env) (fun () ->
         tally.steps <- tally.steps + 1;
         if Types.Net.failed_count net > 0 then
           tally.steps_with_failed <- tally.steps_with_failed + 1;
         match disagreement pr with
         | None -> ()
         | Some m ->
           raise
             (Oracle.Violation
                (Printf.sprintf "counter drift at t=%.6g: %s" (Runner.now env)
                   m))))

(* Fuzz.build with the concrete core kept, so the probe can reach it. *)
let probing_build tally (s : Scenario.t) =
  let n = Scenario.nodes s in
  let env = Runner.make_env ~seed:s.seed ~n ~delay:s.delay ~cs:s.cs () in
  let net = Runner.net env and callbacks = Runner.callbacks env in
  let inst, pr =
    match s.algo with
    | Scenario.Opencube ->
      let config =
        {
          (Opencube_algo.default_config ~p:s.p) with
          fault_tolerance = s.ft;
          asker_patience = s.patience;
          queue_policy =
            (if s.lifo then Opencube_algo.Lifo else Opencube_algo.Fifo);
        }
      in
      let a = Opencube_algo.create ~net ~callbacks ~config in
      (Opencube_algo.instance a, opencube_probe a n)
    | Scenario.Raymond ->
      let tree = Static_tree.build Static_tree.Binomial ~n in
      let a = Raymond.create ~net ~callbacks ~tree () in
      (Raymond.instance a, raymond_probe a n)
    | Scenario.Naimi_trehel ->
      let a = Naimi_trehel.create ~net ~callbacks ~n () in
      (Naimi_trehel.instance a, naimi_trehel_probe a n)
    | Scenario.Central ->
      let a = Central.create ~net ~callbacks ~n () in
      (Central.instance a, central_probe a n)
    | Scenario.Suzuki_kasami ->
      let a = Suzuki_kasami.create ~net ~callbacks ~n () in
      (Suzuki_kasami.instance a, suzuki_kasami_probe a n)
    | Scenario.Ricart_agrawala ->
      let a = Ricart_agrawala.create ~net ~callbacks ~n () in
      (Ricart_agrawala.instance a, ricart_agrawala_probe a n)
  in
  Runner.attach env inst;
  watch tally env pr;
  { Fuzz.env; inst; structure = None }

let campaign_clean ~opts ~iters ~fuzz_seed =
  let tally = { steps = 0; steps_with_failed = 0 } in
  let report =
    Fuzz.campaign ~build:(probing_build tally) ~opts ~iters ~fuzz_seed ()
  in
  (match report.Fuzz.failure with
  | None -> ()
  | Some f ->
    Alcotest.failf "scenario %d: %s\n  %s" f.Fuzz.index f.Fuzz.error
      (Scenario.to_string f.Fuzz.scenario));
  tally

let test_fuzz_prefix_all_algos () =
  let tally =
    campaign_clean ~opts:Scenario.default_opts ~iters:240 ~fuzz_seed:2718
  in
  checkb "the hook ran" true (tally.steps > 10_000)

let test_fuzz_prefix_each_algo () =
  List.iter
    (fun algo ->
      let opts = { Scenario.default_opts with Scenario.algos = [ algo ] } in
      let tally = campaign_clean ~opts ~iters:40 ~fuzz_seed:77 in
      checkb
        (Scenario.algo_name algo ^ ": the hook ran")
        true (tally.steps > 0))
    Scenario.all_algos

let test_fuzz_prefix_crashy_opencube () =
  let opts =
    { Scenario.default_opts with Scenario.algos = [ Scenario.Opencube ] }
  in
  let tally = campaign_clean ~opts ~iters:200 ~fuzz_seed:424242 in
  (* The counter's crash fallback (subtract the tokens frozen at failed
     nodes) must actually have been compared against the scan. *)
  checkb "steps with a node down were checked" true
    (tally.steps_with_failed > 1000)

(* test_direct_api-style: open cube with the fault machinery, random
   crash/recover faults, and the token holder itself killed mid-run so a
   frozen token is on the books while its node is down. *)
let test_crash_recover_direct () =
  let p = 5 in
  let n = 1 lsl p in
  let env =
    Runner.make_env ~seed:3 ~n ~delay:(Ocube_net.Network.Constant 1.0)
      ~cs:(Runner.Fixed 0.5) ()
  in
  let a =
    Opencube_algo.create ~net:(Runner.net env)
      ~callbacks:(Runner.callbacks env)
      ~config:(Opencube_algo.default_config ~p)
  in
  Runner.attach env (Opencube_algo.instance a);
  let tally = { steps = 0; steps_with_failed = 0 } in
  watch tally env (opencube_probe a n);
  Runner.run_arrivals env
    (Runner.Arrivals.poisson ~rng:(Runner.rng env) ~n
       ~rate_per_node:(0.2 /. float_of_int n) ~horizon:4_000.0);
  Runner.schedule_faults env
    (Runner.Faults.random ~rng:(Runner.rng env) ~n ~count:6 ~start:300.0
       ~spacing:500.0 ~recover_after:(Some 80.0) ());
  let frozen = ref 0 in
  let engine = Runner.engine env in
  List.iter
    (fun at ->
      let rec attempt () =
        match Opencube_algo.token_holders a with
        | holder :: _ ->
          Runner.schedule_faults env
            [ Runner.Faults.at (Engine.now engine) holder
                ~recover_after:60.0 () ];
          ignore
            (Engine.schedule engine ~delay:0.0 (fun () ->
                 (* the holder is down and its token is not live *)
                 if Opencube_algo.token_holder_count a = 0 then incr frozen))
        | [] -> ignore (Engine.schedule engine ~delay:0.25 attempt)
      in
      ignore (Engine.schedule_at engine ~time:at attempt))
    [ 1_000.0; 2_500.0 ];
  Runner.run_to_quiescence ~max_steps:20_000_000 env;
  Alcotest.(check int) "violations" 0 (Runner.violations env);
  checkb "holder crashes froze its token" true (!frozen > 0);
  checkb "steps with a node down were checked" true
    (tally.steps_with_failed > 0)

let test_generic_rules () =
  List.iter
    (fun rule ->
      let n = 16 in
      let env =
        Runner.make_env ~seed:42 ~n ~delay:(Ocube_net.Network.Constant 1.0)
          ~cs:(Runner.Fixed 1.0) ()
      in
      let tree = Static_tree.build Static_tree.Binomial ~n in
      let g =
        Generic_scheme.create ~net:(Runner.net env)
          ~callbacks:(Runner.callbacks env) ~tree ~rule ()
      in
      Runner.attach env (Generic_scheme.instance g);
      let tally = { steps = 0; steps_with_failed = 0 } in
      watch tally env (generic_probe g n);
      Runner.run_arrivals env
        (Runner.Arrivals.poisson ~rng:(Runner.rng env) ~n ~rate_per_node:0.05
           ~horizon:400.0);
      Runner.run_to_quiescence env;
      checkb "the hook ran" true (tally.steps > 0))
    Generic_scheme.[ Opencube_rule; Raymond_rule; Always_transit ]

(* --- allocation pin --------------------------------------------------------- *)

(* The oracle's passing path allocates nothing: an N = 32 fault-free run
   with the oracle armed allocates the same minor words as the identical
   run without it, to within a tenth of a word per step (the budget only
   absorbs the measurement's own boxed floats). One scenario per
   algorithm, concurrent arrivals so tokens are in flight at most steps. *)
let test_oracle_step_zero_alloc () =
  List.iter
    (fun algo ->
      let s =
        {
          Scenario.runtime = Scenario.Des;
          algo;
          p = 5;
          seed = 11;
          delay = Ocube_net.Network.Uniform { lo = 0.5; hi = 1.5 };
          cs = Runner.Fixed 1.0;
          ft = false;
          patience = 1.0;
          lifo = false;
          serial = false;
          arrivals =
            List.init 256 (fun k -> (0.4 *. float_of_int k, (k * 7) mod 32));
          faults = [];
        }
      in
      let words ~oracle =
        let b = Fuzz.build s in
        let steps = ref 0 in
        ignore
          (Engine.add_step_hook (Runner.engine b.Fuzz.env) (fun () -> incr steps));
        if oracle then
          Oracle.install ~env:b.Fuzz.env ~inst:b.Fuzz.inst (Fuzz.spec_of s None);
        Runner.run_arrivals b.Fuzz.env s.Scenario.arrivals;
        let before = Gc.minor_words () in
        Runner.run_to_quiescence b.Fuzz.env;
        let w = Gc.minor_words () -. before in
        (w, !steps)
      in
      let bare, steps = words ~oracle:false in
      let armed, steps' = words ~oracle:true in
      Alcotest.(check int) "same run" steps steps';
      let per_step = (armed -. bare) /. float_of_int steps in
      checkb
        (Printf.sprintf "%s: oracle allocation-free (%.3f words/step over %d)"
           (Scenario.algo_name algo) per_step steps)
        true
        (steps > 500 && Float.abs per_step <= 0.1))
    Scenario.all_algos

let suite =
  [
    Alcotest.test_case "counters = scans: fuzz prefix, six algorithms" `Quick
      test_fuzz_prefix_all_algos;
    Alcotest.test_case "counters = scans: each algorithm's stream" `Quick
      test_fuzz_prefix_each_algo;
    Alcotest.test_case "counters = scans: crashy open-cube scenarios" `Quick
      test_fuzz_prefix_crashy_opencube;
    Alcotest.test_case "counters = scans: holder crash and recovery" `Quick
      test_crash_recover_direct;
    Alcotest.test_case "counters = scans: generic scheme rules" `Quick
      test_generic_rules;
    Alcotest.test_case "oracle step allocation-free at N=32" `Quick
      test_oracle_step_zero_alloc;
  ]
