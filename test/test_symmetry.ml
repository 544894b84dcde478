(* Tests for the open-cube automorphism group and state canonicalization:
   group structure against brute-force enumeration of all dist-preserving
   permutations, the precomputed composition table, canonicalization
   properties (idempotence, generator invariance, isomorphic decodes),
   exhaustive orbit sizes at small p, and the streaming canonicalizer
   against the relabel-then-encode reference, escape format included. *)

module Spec = Ocube_model.Spec
module Symmetry = Ocube_model.Symmetry
module Fdeque = Ocube_sim.Fdeque

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- brute force over S_n -------------------------------------------------- *)

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        List.map
          (fun rest -> x :: rest)
          (permutations (List.filter (fun y -> y <> x) l)))
      l

(* Every dist-preserving permutation of [0 .. 2^p - 1], by filtering all
   of S_n — the ground truth the generated group must match. *)
let brute_force_group p =
  let n = 1 lsl p in
  permutations (List.init n Fun.id)
  |> List.map Array.of_list
  |> List.filter (Symmetry.is_automorphism ~p)

let perm_to_string a =
  String.concat "," (List.map string_of_int (Array.to_list a))

(* --- group structure ------------------------------------------------------- *)

let test_group_orders () =
  List.iter
    (fun (p, expect) ->
      let t = Symmetry.table ~p in
      checki (Printf.sprintf "order at p=%d" p) expect (Symmetry.order t);
      checkb "full group" true (Symmetry.is_exact t))
    [ (0, 1); (1, 2); (2, 8); (3, 128) ];
  (* 2^(2^4 - 1) = 32768 blows the cap: translation-subgroup fallback. *)
  let t4 = Symmetry.table ~p:4 in
  checki "fallback order at p=4" 16 (Symmetry.order t4);
  checkb "fallback is not exact" true (not (Symmetry.is_exact t4))

let test_group_equals_brute_force () =
  List.iter
    (fun p ->
      let t = Symmetry.table ~p in
      let brute =
        List.sort_uniq String.compare
          (List.map perm_to_string (brute_force_group p))
      in
      let table =
        List.sort_uniq String.compare
          (List.init (Symmetry.order t) (fun k ->
               perm_to_string (Symmetry.perm t k)))
      in
      checki
        (Printf.sprintf "brute-force count at p=%d" p)
        (List.length brute) (List.length table);
      checkb
        (Printf.sprintf "same set at p=%d" p)
        true
        (List.equal String.equal brute table))
    [ 0; 1; 2; 3 ]

let test_group_laws () =
  let t = Symmetry.table ~p:3 in
  let n = 8 in
  let id = Array.init n Fun.id in
  checkb "element 0 is the identity" true (Symmetry.perm t 0 = id);
  for a = 0 to Symmetry.order t - 1 do
    checki "a . a^-1 = id" 0 (Symmetry.compose t a (Symmetry.inverse t a));
    checki "a^-1 . a = id" 0 (Symmetry.compose t (Symmetry.inverse t a) a);
    let b = (a * 37) mod Symmetry.order t in
    let ab = Symmetry.compose t a b in
    let pa = Symmetry.perm t a
    and pb = Symmetry.perm t b in
    let expect = Array.init n (fun i -> pa.(pb.(i))) in
    checkb "compose matches array composition" true
      (Symmetry.perm t ab = expect)
  done

(* The composition table against the definition it replaced: compose the
   two arrays and look the result up among the table's elements. Every
   pair at p <= 3 (the full groups), sampled pairs at p = 4..6 (the
   translation subgroup). *)
let test_compose_table () =
  List.iter
    (fun p ->
      let t = Symmetry.table ~p in
      let g = Symmetry.order t in
      let n = 1 lsl p in
      let index = Hashtbl.create g in
      for k = 0 to g - 1 do
        Hashtbl.replace index (Symmetry.perm t k) k
      done;
      let check a b =
        let pa = Symmetry.perm t a
        and pb = Symmetry.perm t b in
        checki
          (Printf.sprintf "compose %d %d at p=%d" a b p)
          (Hashtbl.find index (Array.init n (fun i -> pa.(pb.(i)))))
          (Symmetry.compose t a b)
      in
      for a = 0 to g - 1 do
        if p <= 3 then
          for b = 0 to g - 1 do
            check a b
          done
        else
          List.iter (check a)
            [ 0; ((a * 37) + 11) mod g; a * a mod g; g - 1 - a ]
      done)
    [ 0; 1; 2; 3; 4; 5; 6 ];
  (* on the levelwise engine's per-successor path: no allocation *)
  let t = Symmetry.table ~p:3 in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for a = 0 to 127 do
    for b = 0 to 127 do
      acc := !acc + Symmetry.compose t a b
    done
  done;
  let words = Gc.minor_words () -. before in
  checkb "compose allocates nothing" true (words < 64.0 && !acc > 0)

let test_generators_are_automorphisms () =
  List.iter
    (fun p ->
      List.iter
        (fun g ->
          checkb
            (Printf.sprintf "generator at p=%d" p)
            true
            (Symmetry.is_automorphism ~p g))
        (Symmetry.generators ~p))
    [ 1; 2; 3; 4 ]

let test_bit_permutations_are_trivial () =
  (* Genuine bit shuffles preserve dist only when they are the identity:
     dist 0 (1 lsl b) = b + 1 pins every bit. Check all 6 bit shuffles
     at p=3. *)
  let p = 3 in
  let shuffles = permutations [ 0; 1; 2 ] in
  let surviving =
    List.filter
      (fun sigma ->
        let s = Array.of_list sigma in
        let a =
          Array.init 8 (fun i ->
              let r = ref 0 in
              for b = 0 to 2 do
                if i land (1 lsl b) <> 0 then r := !r lor (1 lsl s.(b))
              done;
              !r)
        in
        Symmetry.is_automorphism ~p a)
      shuffles
  in
  checki "only the identity bit-permutation survives" 1
    (List.length surviving)

(* --- canonicalization ------------------------------------------------------ *)

(* Seeded random walk through the (optionally faulty) transition graph. *)
let random_walk ?(max_faults = 0) ~seed ~p ~wishes ~steps () =
  let rng = Ocube_sim.Rng.create seed in
  let st = ref (Spec.initial ~p ~wishes) in
  let acc = ref [ !st ] in
  (try
     for _ = 1 to steps do
       match Spec.transitions ~max_faults !st with
       | [] -> raise Exit
       | ts ->
         let _, st' = List.nth ts (Ocube_sim.Rng.int rng (List.length ts)) in
         st := st';
         acc := st' :: !acc
     done
   with Exit -> ());
  !acc

let walk_states seed =
  let p = 1 + (seed mod 3) in
  let faults = if seed mod 2 = 0 then 1 else 0 in
  random_walk ~max_faults:faults ~seed ~p ~wishes:2 ~steps:16 ()

(* --- streaming canonicalizer vs the relabel-then-encode reference ---------- *)

(* The canonicalizer [Symmetry.canonicalize] replaced: build every
   relabelled state, encode it in full, keep the first strict minimum.
   The streaming one must agree with it bit for bit — key, permutation
   index and orbit — since state ids, de-canonicalized traces and the
   jobs-width parity all hang off those three. *)
let reference_canonicalize t st =
  let best = ref (Spec.encode st)
  and arg = ref 0
  and ties = ref 1 in
  for k = 1 to Symmetry.order t - 1 do
    let key = Spec.encode (Spec.relabel (Symmetry.perm t k) st) in
    let c = String.compare key !best in
    if c < 0 then begin
      best := key;
      arg := k;
      ties := 1
    end
    else if c = 0 then incr ties
  done;
  (!best, !arg, Symmetry.order t / !ties)

let agrees_with_reference t st =
  let c = Symmetry.canonicalize t st in
  let key, arg, orbit = reference_canonicalize t st in
  String.equal c.Symmetry.key key
  && c.Symmetry.perm_index = arg
  && c.Symmetry.orbit = orbit
  && c.Symmetry.in_flight = List.length (Spec.flight_msgs st)

(* Every σ's streamed key, run to completion, is encode (relabel σ st). *)
let streamed_keys_match t st =
  List.for_all
    (fun k ->
      let sigma = Symmetry.perm t k
      and inv = Symmetry.perm t (Symmetry.inverse t k) in
      String.equal
        (Spec.encode_relabeled sigma inv st)
        (Spec.encode (Spec.relabel sigma st)))
    (List.init (Symmetry.order t) Fun.id)

let log2 n =
  let rec go n = if n <= 1 then 0 else 1 + go (n / 2) in
  go n

let table_of st = Symmetry.table ~p:(log2 (Spec.num_nodes st))

let qcheck_canon_tests =
  let open QCheck in
  [
    Test.make ~count:80 ~name:"canonicalization is idempotent"
      (int_range 0 100_000)
      (fun seed ->
        List.for_all
          (fun st ->
            let p = Spec.num_nodes st |> fun n ->
              let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
              log2 n
            in
            let t = Symmetry.table ~p in
            let c = Symmetry.canonicalize t st in
            let c' = Symmetry.canonicalize t (Spec.decode c.Symmetry.key) in
            String.equal c'.Symmetry.key c.Symmetry.key
            && c'.Symmetry.perm_index = 0
            && c'.Symmetry.orbit = c.Symmetry.orbit)
          (walk_states seed));
    Test.make ~count:80 ~name:"canonical key invariant under every generator"
      (int_range 0 100_000)
      (fun seed ->
        List.for_all
          (fun st ->
            let n = Spec.num_nodes st in
            let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
            let p = log2 n in
            let t = Symmetry.table ~p in
            let c = Symmetry.canonicalize t st in
            List.for_all
              (fun g ->
                let c' = Symmetry.canonicalize t (Spec.relabel g st) in
                String.equal c'.Symmetry.key c.Symmetry.key
                && c'.Symmetry.orbit = c.Symmetry.orbit)
              (Symmetry.generators ~p))
          (walk_states seed));
    Test.make ~count:80
      ~name:"canonical key decodes to the recorded relabeling"
      (int_range 0 100_000)
      (fun seed ->
        List.for_all
          (fun st ->
            let n = Spec.num_nodes st in
            let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
            let p = log2 n in
            let t = Symmetry.table ~p in
            let c = Symmetry.canonicalize t st in
            let sigma = Symmetry.perm t c.Symmetry.perm_index in
            Symmetry.is_automorphism ~p sigma
            && Spec.decode c.Symmetry.key = Spec.relabel sigma st)
          (walk_states seed));
    Test.make ~count:40
      ~name:"streamed key = encode (relabel σ st) for every σ in G"
      (int_range 0 100_000)
      (fun seed ->
        List.for_all
          (fun st -> streamed_keys_match (table_of st) st)
          (walk_states seed));
    Test.make ~count:40 ~name:"dynamics are equivariant under the group"
      (int_range 0 100_000)
      (fun seed ->
        (* transitions (relabel g st) = g-image of transitions st, as
           sets — the soundness theorem behind the quotient search. *)
        List.for_all
          (fun st ->
            let n = Spec.num_nodes st in
            let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
            let p = log2 n in
            let t = Symmetry.table ~p in
            let k = 1 + (seed mod max 1 (Symmetry.order t - 1)) in
            let g = Symmetry.perm t k in
            let image =
              List.map
                (fun (tr, st') ->
                  (Symmetry.apply_transition t k tr, Spec.relabel g st'))
                (Spec.transitions ~max_faults:1 st)
            in
            let direct = Spec.transitions ~max_faults:1 (Spec.relabel g st) in
            List.length image = List.length direct
            && List.for_all (fun x -> List.mem x direct) image)
          (walk_states seed));
  ]

(* Exhaustive orbit check at p <= 2: the orbit size reported by
   [canonicalize] equals the number of distinct keys under *all*
   dist-preserving relabelings of S_n. *)
let test_orbit_sizes_exhaustive () =
  List.iter
    (fun p ->
      let group = brute_force_group p in
      let t = Symmetry.table ~p in
      List.iter
        (fun seed ->
          List.iter
            (fun st ->
              let c = Symmetry.canonicalize t st in
              let keys =
                List.sort_uniq String.compare
                  (List.map (fun g -> Spec.encode (Spec.relabel g st)) group)
              in
              checki
                (Printf.sprintf "orbit size (p=%d seed=%d)" p seed)
                (List.length keys) c.Symmetry.orbit;
              checkb "canonical key is the orbit minimum" true
                (String.equal (List.hd keys) c.Symmetry.key))
            (random_walk ~max_faults:(seed mod 2) ~seed ~p ~wishes:2
               ~steps:12 ()))
        [ 1; 2; 3; 4; 5; 6 ])
    [ 1; 2 ]

let test_orbit_divides_order () =
  let t = Symmetry.table ~p:3 in
  List.iter
    (fun seed ->
      List.iter
        (fun st ->
          let c = Symmetry.canonicalize t st in
          checki "Lagrange: orbit divides group order" 0
            (Symmetry.order t mod c.Symmetry.orbit))
        (random_walk ~max_faults:1 ~seed ~p:3 ~wishes:1 ~steps:12 ()))
    [ 1; 2; 3 ]

(* The whole raw state space, breadth first. *)
let reachable ~p ~wishes =
  let seen = Hashtbl.create 4096 in
  let queue = Queue.create () in
  let acc = ref [] in
  let visit st =
    let k = Spec.encode st in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      acc := st :: !acc;
      Queue.add st queue
    end
  in
  visit (Spec.initial ~p ~wishes);
  while not (Queue.is_empty queue) do
    List.iter (fun (_, st') -> visit st') (Spec.transitions (Queue.pop queue))
  done;
  List.rev !acc

let test_streamed_exhaustive_p2 () =
  let t = Symmetry.table ~p:2 in
  let states = reachable ~p:2 ~wishes:1 in
  checki "raw p=2 w=1 states" 1064 (List.length states);
  List.iter
    (fun st ->
      checkb "streamed = reference (p=2 w=1)" true (agrees_with_reference t st))
    states;
  let canonical =
    List.sort_uniq String.compare
      (List.map (fun st -> (Symmetry.canonicalize t st).Symmetry.key) states)
  in
  checki "canonical p=2 w=1 states" 437 (List.length canonical)

let test_streamed_random_p3 () =
  let t = Symmetry.table ~p:3 in
  List.iter
    (fun seed ->
      List.iter
        (fun st ->
          checkb
            (Printf.sprintf "streamed = reference (p=3 seed=%d)" seed)
            true (agrees_with_reference t st))
        (random_walk ~max_faults:1 ~seed ~p:3 ~wishes:2 ~steps:40 ()))
    (List.init 12 (fun k -> k + 1))

(* Escape format, large fields: wish budgets straddling 254 (one byte
   below it, nine at or above it) and a queue longer than 254. *)
let test_escape_wishes_and_queues () =
  List.iter
    (fun (p, seed) ->
      let t = Symmetry.table ~p in
      let states =
        random_walk ~max_faults:1 ~seed ~p ~wishes:255 ~steps:60 ()
      in
      checkb "some wish budget crossed 254" true
        (List.exists
           (fun st ->
             List.exists
               (fun i -> (Spec.node st i).Spec.wishes_left < 254)
               (List.init (Spec.num_nodes st) Fun.id))
           states);
      List.iter
        (fun st ->
          checkb "escaped wishes: streamed = reference" true
            (agrees_with_reference t st);
          checkb "escaped wishes: every streamed key" true
            (streamed_keys_match t st))
        states)
    [ (2, 1); (2, 2); (3, 3) ];
  let t = Symmetry.table ~p:2 in
  let st0 = Spec.initial ~p:2 ~wishes:1 in
  let long_queue = Fdeque.of_list (List.init 300 (fun k -> (k * 7) mod 4)) in
  let st =
    Spec.set_node st0 1
      { (Spec.node st0 1) with Spec.asking = true; queue = long_queue }
  in
  checkb "long queue: streamed = reference" true (agrees_with_reference t st);
  checkb "long queue: every streamed key" true (streamed_keys_match t st);
  let c = Symmetry.canonicalize t st in
  checkb "long queue: key decodes to its relabelling" true
    (Spec.decode c.Symmetry.key
    = Spec.relabel (Symmetry.perm t c.Symmetry.perm_index) st)

(* Escape format, large ids: at p = 8 ids 254 and 255 (and fathers or
   mandators 253..255, stored +1) take nine bytes, so the keys of
   different translations differ in length. The minimum must be
   [String.compare]'s — bytewise, not shortest first. Wherever the walk
   reaches a state whose minimum is longer than some other key, the
   streamed search over just those two permutations, in either order,
   must pick the longer, smaller one; the walk must contain such a
   state, or this test would not pin the order. *)
let test_escape_ids_p8 () =
  let t = Symmetry.table ~p:8 in
  checki "translation subgroup at p=8" 256 (Symmetry.order t);
  let pinned = ref 0 in
  List.iter
    (fun seed ->
      List.iter
        (fun st ->
          checkb "p=8: streamed = reference" true (agrees_with_reference t st);
          let c = Symmetry.canonicalize t st in
          let len k =
            String.length (Spec.encode (Spec.relabel (Symmetry.perm t k) st))
          in
          let best = c.Symmetry.perm_index in
          match
            List.find_opt
              (fun k -> len k < len best)
              (List.init (Symmetry.order t) Fun.id)
          with
          | None -> ()
          | Some short ->
            incr pinned;
            let pair a b =
              let arr = [| a; b |] in
              Spec.min_relabeled_key
                (Array.map (Symmetry.perm t) arr)
                (Array.map (fun k -> Symmetry.perm t (Symmetry.inverse t k)) arr)
                st
            in
            let m = pair short best in
            checkb "shorter, greater key first: the longer one wins" true
              (m.Spec.arg = 1 && String.equal m.Spec.key c.Symmetry.key);
            checki "longer, smaller key first: it stays" 0
              (pair best short).Spec.arg)
        (random_walk ~max_faults:1 ~seed ~p:8 ~wishes:1 ~steps:12 ()))
    [ 1; 2 ];
  checkb "some minimum is longer than another key" true (!pinned > 0)

let suite =
  [
    ("group orders", `Quick, test_group_orders);
    ("group equals brute force (p<=3)", `Quick, test_group_equals_brute_force);
    ("group laws", `Quick, test_group_laws);
    ("composition table vs composed arrays", `Quick, test_compose_table);
    ("generators are automorphisms", `Quick, test_generators_are_automorphisms);
    ("bit permutations are trivial", `Quick, test_bit_permutations_are_trivial);
    ("orbit sizes vs brute force (p<=2)", `Quick, test_orbit_sizes_exhaustive);
    ("orbit divides group order", `Quick, test_orbit_divides_order);
    ("streamed = reference, all of p=2 w=1", `Quick, test_streamed_exhaustive_p2);
    ("streamed = reference, p=3 fault walks", `Quick, test_streamed_random_p3);
    ("escape format: wishes, long queue", `Quick, test_escape_wishes_and_queues);
    ("escape format: ids at p=8", `Quick, test_escape_ids_p8);
  ]
  @ List.map
      (fun t -> QCheck_alcotest.to_alcotest ~long:false t)
      qcheck_canon_tests
