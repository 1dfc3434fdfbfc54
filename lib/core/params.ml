type key_depths = { relin_depth : int; rotation_depths : (int * int) list }

type t = {
  log_n : int;
  bit_sizes : int list;
  context_data_bits : int list;
  special_bits : int list;
  rotations : int list;
  log_q : int;
  key_depths : key_depths;
}

exception Selection_error of string

let () =
  Eva_diag.Diag.register_classifier (function
    | Selection_error m ->
        Some (Eva_diag.Diag.make ~layer:Eva_diag.Diag.Compile ~code:Eva_diag.Diag.compile_selection m)
    | _ -> None)

let fail fmt = Format.kasprintf (fun s -> raise (Selection_error s)) fmt

(* Factorize a log2 magnitude into element bit sizes: all s_f except a
   power-of-two remainder (paper Section 6.2). *)
let factorize ~s_f log_total =
  if log_total <= 0 then fail "output magnitude 2^%d is not positive" log_total;
  let full = log_total / s_f and rem = log_total mod s_f in
  let factors = List.init full (fun _ -> s_f) in
  if rem = 0 then factors else factors @ [ rem ]

(* SEAL-style prime-size floor: elements realized as one machine prime
   need at least log2(2N)+1 bits; two extra bits keep the prime-candidate
   window dense enough that suitable primes exist. Rebalance (preserving
   the total) or pad. *)
let legalize_factors ~log_n factors =
  let min_bits = Eva_rns.Primes.min_bits ~two_n:(2 lsl log_n) + 2 in
  let rec fix = function
    | [] -> []
    | [ last ] when last < min_bits -> [ min_bits ]
    | a :: b :: rest when b < min_bits ->
        let total = a + b in
        ((total + 1) / 2) :: (total / 2) :: fix rest
    | a :: rest -> a :: fix rest
  in
  fix factors

let select ?(s_f = Passes.default_s_f) p =
  let chains = Analysis.chains p in
  let scales = Analysis.scales p in
  let outs = Ir.outputs p in
  if outs = [] then fail "program has no outputs";
  (* A residual modswitch slot not matched by any rescale can take any
     size; s_f is the safe upper bound. *)
  let concrete_chain o =
    List.map (function Some k -> k | None -> s_f) (Hashtbl.find chains o.Ir.id)
  in
  let candidates =
    List.map
      (fun o ->
        let c = concrete_chain o in
        let log_out = Hashtbl.find scales o.Ir.id + o.Ir.decl_scale in
        let factors = factorize ~s_f log_out in
        (o, c, factors))
      outs
  in
  (* The output maximizing |c_o| + |factors| (ties broken by total bits)
     determines the modulus chain. *)
  let _, c_m, factors_m =
    List.fold_left
      (fun ((best_key, _, _) as best) (_, c, f) ->
        let key = (List.length c + List.length f, List.fold_left ( + ) 0 (c @ f)) in
        if compare key best_key > 0 then (key, c, f) else best)
      ((min_int, min_int), [], [])
      candidates
  in
  let rotation_levels, relin_level = Analysis.key_levels p ~chains in
  let rotations = List.map fst rotation_levels in
  (* The chain has one element per entry of [c_m] and [factors_m], and
     every input enters at its top. *)
  let elements = List.length c_m + List.length factors_m in
  let key_depths =
    {
      relin_depth = (match relin_level with Some l -> elements - l | None -> 0);
      rotation_depths = List.map (fun (step, l) -> (step, elements - l)) rotation_levels;
    }
  in
  (* Degree: large enough for the batch size and for 128-bit security of
     the total modulus. Legalizing tiny factors can add a few bits, so
     iterate until stable. *)
  let rec fit log_n =
    if log_n > 16 then fail "no standard degree admits this modulus (log Q too large)";
    let n = 1 lsl log_n in
    let factors = legalize_factors ~log_n factors_m in
    let chain = legalize_factors ~log_n c_m in
    let bit_sizes = (s_f :: chain) @ factors in
    let log_q = List.fold_left ( + ) 0 bit_sizes in
    if n / 2 < p.Ir.vec_size then fit (log_n + 1)
    else if log_q > Eva_ckks.Security.max_log_q ~level:Eva_ckks.Security.Bits128 ~n then fit (log_n + 1)
    else
      {
        log_n;
        bit_sizes;
        context_data_bits = factors @ List.rev chain;
        special_bits = [ s_f ];
        rotations;
        log_q;
        key_depths;
      }
  in
  fit 10

let pp fmt t =
  Format.fprintf fmt "@[<v>log N = %d@,log Q = %d@,bit sizes = [%s]@,rotations = [%s]@]" t.log_n t.log_q
    (String.concat "; " (List.map string_of_int t.bit_sizes))
    (String.concat "; " (List.map string_of_int t.rotations))
