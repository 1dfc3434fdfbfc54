module Ir = Eva_core.Ir
module Analysis = Eva_core.Analysis
module Compile = Eva_core.Compile
module Params = Eva_core.Params
module Context = Eva_ckks.Context

type coefficients = { c_linear : float; c_mul : float; c_ntt : float; c_encode : float }

(* Measured on one x86-64 core with this repository's scheme. *)
let default_coefficients = { c_linear = 2.2e-9; c_mul = 2.8e-9; c_ntt = 1.6e-9; c_encode = 2.5e-8 }

let calibrate ?(log_n = 12) () =
  let module Ctx = Eva_ckks.Context in
  let module Keys = Eva_ckks.Keys in
  let module Eval = Eva_ckks.Eval in
  let n = 1 lsl log_n in
  let ctx = Ctx.make ~ignore_security:true ~n ~data_bits:[ 60; 60; 60 ] ~special_bits:[ 60 ] () in
  let rng = Random.State.make [| 99 |] in
  let secret, ks = Keys.generate ctx rng ~galois_elts:[] in
  ignore secret;
  let v = Array.init (n / 2) (fun i -> Float.sin (float_of_int i)) in
  let scale = Float.ldexp 1.0 40 in
  let pt = Eval.encode ctx ~level:3 ~scale v in
  let ct = Eval.encrypt ctx ks rng pt in
  let time f =
    let reps = 5 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  (* Level 3: three 60-bit elements (digits) over m = 6 machine primes,
     and s = 2 special primes. *)
  let fe = 3.0 and fm = 6.0 and fs = 2.0 in
  let fn = float_of_int n in
  let flog = float_of_int log_n in
  let t_add = time (fun () -> Eval.add ct ct) in
  let t_mul = time (fun () -> Eval.multiply ct ct) in
  let t_relin =
    let prod = Eval.multiply ct ct in
    time (fun () -> Eval.relinearize ctx ks prod)
  in
  let t_encode = time (fun () -> Eval.encode ctx ~level:3 ~scale v) in
  let c_linear = t_add /. (2.0 *. fm *. fn) in
  let c_mul = t_mul /. (3.0 *. fm *. fn) in
  (* Key switching: e * (m + s) NTTs to decompose, 2 * (s + m) for the
     mod-down (as [switch_split_cost] counts them). *)
  let c_ntt = t_relin /. (((fe *. (fm +. fs)) +. (2.0 *. (fs +. fm))) *. fn *. flog) in
  let c_encode = t_encode /. fn in
  { c_linear; c_mul; c_ntt; c_encode }

(* Key switching (one digit per modulus element, one special element)
   split into its hoistable prefix and per-key suffix, at a level with
   [e] modulus elements (= digits), [m] machine primes and [t = m + s]
   target primes:

   - decompose: one inverse NTT per current prime (to coefficient form)
     plus one forward NTT per (digit, target-prime) pair outside the
     digit's own primes, whose NTT rows are the input's: m + (e*t - m)
     = e*t;
   - apply: the per-digit pointwise inner products against the key and,
     per component, the division by the special primes in the NTT
     domain: s inverse NTTs and m forward, 2 * (s + m) in all.

   A naive switch is [decompose + apply]; a hoisted rotation group of k
   members is [decompose + k * apply] — the pricing the executors'
   RotateMany grouping realizes. *)
let switch_split_cost coeffs ~log_n ~special_primes ~primes_of_level ~level =
  let fn = float_of_int (1 lsl log_n) in
  let flog = float_of_int log_n in
  let m = float_of_int (primes_of_level level) in
  let s = float_of_int special_primes in
  let e = float_of_int level in
  let t = m +. s in
  let decompose = coeffs.c_ntt *. e *. t *. fn *. flog in
  let apply =
    (coeffs.c_ntt *. 2.0 *. (s +. m) *. fn *. flog) +. (coeffs.c_mul *. 2.0 *. e *. t *. fn)
  in
  (decompose, apply)

(* Modeled seconds for node [n]: [primes_of_level] maps a chain level
   (elements remaining) to machine-prime count and [level_of] gives each
   node's level. [polys_of] gives each node's ciphertext size. *)
let node_cost ?(polys_of = fun _ -> 2) coeffs ~log_n ~special_primes ~primes_of_level ~level_of n =
  let fn = float_of_int (1 lsl log_n) in
  let flog = float_of_int log_n in
  let m = float_of_int (primes_of_level (level_of n)) in
  (* Linear ops and rescale touch every polynomial of the ciphertext:
     size-3 values flowing under lazy relinearization cost 3/2 of their
     canonical shape. [polys_of] defaults to the canonical 2. *)
  let np = float_of_int (max 2 (polys_of n)) in
  match n.Ir.op with
  | Ir.Input _ | Ir.Constant _ | Ir.Output _ -> 0.0
  | Ir.Negate -> coeffs.c_linear *. np *. m *. fn
  | Ir.Add | Ir.Sub -> coeffs.c_linear *. np *. m *. fn
  | Ir.Multiply ->
      (* Pointwise products over up to 3 result components, plus operand
         encoding when one side is plaintext (amortized, kept simple). *)
      (coeffs.c_mul *. 3.0 *. m *. fn) +. (coeffs.c_encode *. fn)
  | Ir.Rescale _ ->
      (* Per polynomial, pc inverse NTTs of the dropped primes plus one
         forward NTT per remaining prime: as many NTTs as primes before
         the rescale (the node's level is after it). *)
      let m_in = float_of_int (primes_of_level (level_of n + 1)) in
      coeffs.c_ntt *. np *. m_in *. fn *. flog
  | Ir.Mod_switch -> coeffs.c_linear *. (np /. 2.0) *. m *. fn
  | Ir.Relinearize | Ir.Rotate_left _ | Ir.Rotate_right _ ->
      (* Full key switch: the hoistable prefix plus one apply. *)
      let d, a =
        switch_split_cost coeffs ~log_n ~special_primes ~primes_of_level ~level:(level_of n)
      in
      d +. a

let primes_of_level chain =
  let prefix = Array.make (List.length chain + 1) 0 in
  List.iteri (fun i bits -> prefix.(i + 1) <- prefix.(i) + Context.element_prime_count bits) chain;
  fun level -> prefix.(max 1 (min level (List.length chain)))

let program_costs ?log_n ?(hoist = true) coeffs compiled =
  let p = compiled.Compile.program in
  let params = compiled.Compile.params in
  let log_n = Option.value log_n ~default:params.Params.log_n in
  let total_elements = List.length params.Params.context_data_bits in
  let primes_of_level = primes_of_level params.Params.context_data_bits in
  let special_primes =
    List.fold_left (fun acc bits -> acc + Context.element_prime_count bits) 0 params.Params.special_bits
  in
  let chains = Analysis.chains p in
  let ty = Analysis.types p in
  let level_of n =
    match Hashtbl.find_opt chains n.Ir.id with
    | Some c -> total_elements - List.length c
    | None -> total_elements
  in
  let num_polys = Analysis.num_polys p in
  let polys_of n = Option.value (Hashtbl.find_opt num_polys n.Ir.id) ~default:2 in
  (* Under hoisted execution a group's non-leader rotations reuse the
     leader's decomposition, so they are priced at the apply suffix
     only. *)
  let satellites = Hashtbl.create 8 in
  if hoist then
    List.iter
      (fun g ->
        match g.Eva_core.Optimize.hoist_rotations with
        | _leader :: rest -> List.iter (fun m -> Hashtbl.replace satellites m.Ir.id ()) rest
        | [] -> ())
      (Eva_core.Optimize.rotation_groups p);
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun n ->
      let cost =
        if Hashtbl.find ty n.Ir.id <> Ir.Cipher then
          (* Plaintext arithmetic is vector work at vec_size. *)
          coeffs.c_linear *. float_of_int p.Ir.vec_size
        else if Hashtbl.mem satellites n.Ir.id then
          snd
            (switch_split_cost coeffs ~log_n ~special_primes ~primes_of_level
               ~level:(level_of n))
        else node_cost ~polys_of coeffs ~log_n ~special_primes ~primes_of_level ~level_of n
      in
      Hashtbl.replace tbl n.Ir.id cost)
    p.Ir.all_nodes;
  tbl
