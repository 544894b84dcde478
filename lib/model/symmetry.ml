(* Automorphisms of the open cube, and canonicalization of Spec states
   under them.

   The distance [Opencube.dist i j] is the bit length of [i lxor j] — an
   ultrametric: every d-group block [base, base + 2^d) (base a multiple
   of 2^d) is a "ball", and a permutation of node ids preserves [dist]
   iff it maps every block onto a block of the same size. Those
   permutations form the automorphism group of the complete binary tree
   over the id space: the p-fold iterated wreath product of S2, of order
   2^(2^p - 1). Two generator families are used:

   - XOR-translations [i ↦ i lxor m]: dist (i lxor m) (j lxor m) =
     bitlen ((i lxor m) lxor (j lxor m)) = bitlen (i lxor j), so every
     mask is an automorphism. They form a subgroup of order 2^p.

   - Block half-swaps: for a level d >= 1 and one block
     [base, base + 2^d), xor bit (d-1) inside that block only. This
     swaps the two half-blocks (the block's own sub-balls) and fixes
     everything outside; distances within the block, within the
     complement, and across (always >= d+1, governed by higher bits,
     which the swap never touches) are all preserved.

   The half-swaps alone generate the full tree-automorphism group (a
   global xor of bit b is the product of all level-(b+1) half-swaps, so
   translations are included). Note that genuine *bit permutations*
   [i ↦ its bits shuffled by σ] are dist-preserving only for σ = id:
   dist 0 (1 lsl b) = b + 1 pins every bit in place. The group is
   therefore generated from translations + half-swaps and every element
   is validated against the closed-form [Opencube.dist] — see
   {!is_automorphism}.

   For p <= 3 the full group is small (|G| = 2, 8, 128) and is built by
   closure; beyond that it explodes (p = 4 already has 32768 elements),
   so [table] falls back to the XOR-translation subgroup (2^p elements,
   still a sound quotient, just a weaker one) up to p = 10. *)

module Opencube = Ocube_topology.Opencube
module Stbl = Hashtbl.Make (String)

type perm = int array

type t = {
  p : int;
  perms : perm array;  (* perms.(0) is the identity *)
  inv : int array;  (* inv.(k) = index of perms.(k)'s inverse *)
  inv_perms : perm array;  (* inv_perms.(k) = perms.(inv.(k)), shared *)
  comp : int array;
      (* comp.(a * order + b) = index of perms.(a) ∘ perms.(b); exact
         groups only (order <= 128) — a translation's index is its mask,
         so there composition is [a lxor b] *)
  exact : bool;  (* full automorphism group, or translation subgroup *)
}

let dim t = t.p
let order t = Array.length t.perms
let perm t k = t.perms.(k)
let inverse t k = t.inv.(k)
let is_exact t = t.exact

(* Node ids fit 10 bits (p <= 10), so two bytes per entry are enough for
   an injective table key. *)
let perm_key (a : perm) =
  let n = Array.length a in
  let b = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let v = Array.unsafe_get a i in
    Bytes.unsafe_set b (2 * i) (Char.unsafe_chr (v land 0xff));
    Bytes.unsafe_set b ((2 * i) + 1) (Char.unsafe_chr ((v lsr 8) land 0xff))
  done;
  Bytes.unsafe_to_string b

let compose_perm a b = Array.init (Array.length a) (fun i -> a.(b.(i)))

let invert_perm a =
  let r = Array.make (Array.length a) 0 in
  Array.iteri (fun i v -> r.(v) <- i) a;
  r

let is_bijection a =
  let n = Array.length a in
  let seen = Array.make n false in
  let ok = ref true in
  for i = 0 to n - 1 do
    let v = a.(i) in
    if v < 0 || v >= n || seen.(v) then ok := false else seen.(v) <- true
  done;
  !ok

(* Exhaustive pair check up to n = 64; beyond that, a fixed deterministic
   sample of xor-masks per node (the splitmix64 multiplier as a stream of
   pseudo-random but reproducible masks — no ambient randomness). *)
let preserves_dist ~n a =
  let check i j =
    Opencube.dist a.(i) a.(j) = Opencube.dist i j
  in
  if n <= 64 then begin
    let ok = ref true in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if not (check i j) then ok := false
      done
    done;
    !ok
  end
  else begin
    let ok = ref true in
    let state = ref 0x1E3779B97F4A7C15 in
    for i = 0 to n - 1 do
      (* every single-bit neighbour, plus 32 sampled masks *)
      let b = ref 1 in
      while !b < n do
        if not (check i (i lxor !b)) then ok := false;
        b := !b lsl 1
      done;
      for _ = 1 to 32 do
        state := (!state * 2862933555777941757) + 3037000493;
        let m = (!state lsr 20) land (n - 1) in
        if m <> 0 && not (check i (i lxor m)) then ok := false
      done
    done;
    !ok
  end

let is_automorphism ~p a =
  let n = 1 lsl p in
  Array.length a = n && is_bijection a && preserves_dist ~n a

let generators ~p =
  let n = 1 lsl p in
  let translations =
    List.init (n - 1) (fun k ->
        let m = k + 1 in
        Array.init n (fun i -> i lxor m))
  in
  let half_swaps =
    List.concat_map
      (fun d ->
        let block = 1 lsl d
        and half = 1 lsl (d - 1) in
        List.init (n / block) (fun b ->
            let base = b * block in
            Array.init n (fun i ->
                if i >= base && i < base + block then i lxor half else i)))
      (List.init p (fun d -> d + 1))
  in
  translations @ half_swaps

(* The full group has order 2^(2^p - 1). It is built by closure while
   that stays within 2^[max_log_order] (p <= 3), and replaced by the
   translation subgroup beyond (p = 4 already has 2^15 elements). *)
let max_log_order = 10

let log_order ~p = (1 lsl p) - 1

(* Breadth-first closure of the generators. Deterministic: fixed
   generator order, FIFO worklist, so the element numbering is
   reproducible. *)
let full_group ~p =
  let n = 1 lsl p in
  let id = Array.init n Fun.id in
  let index = Stbl.create 256 in
  Stbl.add index (perm_key id) 0;
  let acc = ref [ id ]
  and count = ref 1 in
  let gens = generators ~p in
  let queue = Queue.create () in
  Queue.add id queue;
  while not (Queue.is_empty queue) do
    let g = Queue.pop queue in
    List.iter
      (fun h ->
        let gh = compose_perm h g in
        let key = perm_key gh in
        if not (Stbl.mem index key) then begin
          Stbl.add index key !count;
          incr count;
          acc := gh :: !acc;
          Queue.add gh queue
        end)
      gens
  done;
  if !count <> 1 lsl log_order ~p then
    failwith "Symmetry.table: closure does not match the group order";
  (Array.of_list (List.rev !acc), index)

let translation_group ~p =
  let n = 1 lsl p in
  let perms = Array.init n (fun m -> Array.init n (fun i -> i lxor m)) in
  let index = Stbl.create (2 * n) in
  Array.iteri (fun k a -> Stbl.add index (perm_key a) k) perms;
  (perms, index)

let max_p = 10

let build p =
  if p < 0 || p > max_p then
    invalid_arg
      (Printf.sprintf "Symmetry.table: p = %d outside [0, %d]" p max_p);
  let exact = log_order ~p <= max_log_order in
  let perms, index =
    if exact then full_group ~p else translation_group ~p
  in
  Array.iter
    (fun a ->
      if not (is_automorphism ~p a) then
        failwith "Symmetry.table: generated a non-automorphism")
    perms;
  let find a = Stbl.find index (perm_key a) in
  let inv = Array.map (fun a -> find (invert_perm a)) perms in
  let order = Array.length perms in
  let comp =
    if exact then
      Array.init (order * order) (fun x ->
          find (compose_perm perms.(x / order) perms.(x mod order)))
    else [||]
  in
  { p; perms; inv; inv_perms = Array.map (Array.get perms) inv; comp; exact }

(* Memoized per p. The first call for a given p must happen before the
   table is shared across domains (Explore builds it up front); after
   that every operation is a pure read. *)
let cache : (int, t) Hashtbl.t = Hashtbl.create 8

let table ~p =
  match Hashtbl.find_opt cache p with
  | Some t -> t
  | None ->
    let t = build p in
    Hashtbl.add cache p t;
    t

let[@ocube.zero_alloc] compose t a b =
  if t.exact then t.comp.((a * Array.length t.perms) + b) else a lxor b

type canon = {
  key : string;
  in_flight : int;
  perm_index : int;
  orbit : int;
}

let canonicalize t st =
  let m = Spec.min_relabeled_key t.perms t.inv_perms st in
  (* [ties] perms reach the minimum — exactly the coset of the canonical
     state's stabilizer — so the orbit has order / ties elements. *)
  {
    key = m.Spec.key;
    in_flight = m.Spec.in_flight;
    perm_index = m.Spec.arg;
    orbit = Array.length t.perms / m.Spec.ties;
  }

let apply_transition t k tr =
  let a = t.perms.(k) in
  match tr with
  | Spec.Wish i -> Spec.Wish a.(i)
  | Spec.Exit i -> Spec.Exit a.(i)
  | Spec.Crash i -> Spec.Crash a.(i)
  | Spec.Deliver m ->
    let payload =
      match m.Spec.payload with
      | Spec.Req o -> Spec.Req a.(o)
      | Spec.Tok l -> Spec.Tok (if l < 0 then l else a.(l))
    in
    Spec.Deliver { Spec.src = a.(m.Spec.src); dst = a.(m.Spec.dst); payload }
