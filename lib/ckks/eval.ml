module Rns_poly = Eva_poly.Rns_poly
module Diag = Eva_diag.Diag

exception Level_mismatch of string
exception Scale_mismatch of string
exception Size_error of string
exception Missing_galois_key of int

(* The typed exceptions stay (they are this module's public contract and
   what the validator proves unreachable); the classifier maps them into
   the structured taxonomy so boundaries report EVA-E6xx codes. *)
let () =
  Diag.register_classifier (function
    | Level_mismatch m -> Some (Diag.make ~layer:Diag.Crypto ~code:Diag.crypto_level m)
    | Scale_mismatch m -> Some (Diag.make ~layer:Diag.Crypto ~code:Diag.crypto_scale m)
    | Size_error m -> Some (Diag.make ~layer:Diag.Crypto ~code:Diag.crypto_size m)
    | Missing_galois_key g ->
        Some
          (Diag.make ~layer:Diag.Crypto ~code:Diag.crypto_missing_key
             (Printf.sprintf "missing Galois key for element %d" g))
    | _ -> None)

type ciphertext = { polys : Rns_poly.t array; level : int; scale : float }
type plaintext = { poly : Rns_poly.t; pt_level : int; pt_scale : float }

let size ct = Array.length ct.polys

let scales_match a b =
  let m = Float.max (Float.abs a) (Float.abs b) in
  m = 0.0 || Float.abs (a -. b) /. m < 1e-9

let check_levels op a b = if a <> b then raise (Level_mismatch op)

let check_scales op a b =
  if not (scales_match a b) then
    raise (Scale_mismatch (Printf.sprintf "%s: scales 2^%.3f vs 2^%.3f" op (Float.log2 a) (Float.log2 b)))

let encode ctx ~level ~scale values = { poly = Context.encode ctx ~level ~scale values; pt_level = level; pt_scale = scale }

let encrypt ctx ks rng pt =
  let tables = Context.tables_for_level ctx pt.pt_level in
  let pk_b_full, pk_a_full = Keys.public_parts ks.Keys.public in
  (* Restrict the public key to the plaintext's level. *)
  let m = Array.length tables in
  let restrict p = Rns_poly.of_ntt_rows ~tables (Array.sub (Rns_poly.rows p) 0 m) in
  let pk_b = restrict pk_b_full and pk_a = restrict pk_a_full in
  let u = Rns_poly.sample_ternary rng ~tables in
  let e0 = Rns_poly.sample_error rng ~tables in
  let e1 = Rns_poly.sample_error rng ~tables in
  (* The products are fresh, so the error and message fold in place. *)
  let c0 = Rns_poly.mul pk_b u in
  Rns_poly.add_inplace c0 e0;
  Rns_poly.add_inplace c0 pt.poly;
  let c1 = Rns_poly.mul pk_a u in
  Rns_poly.add_inplace c1 e1;
  { polys = [| c0; c1 |]; level = pt.pt_level; scale = pt.pt_scale }

let decrypt_poly ctx secret ct =
  let s = Keys.secret_at_level ctx secret ~level:ct.level in
  (* m = c0 + c1 s + c2 s^2 + ... (Horner); the accumulator is a local
     copy, so every step mutates it rather than allocating. *)
  let acc = Rns_poly.copy ct.polys.(Array.length ct.polys - 1) in
  for i = Array.length ct.polys - 2 downto 0 do
    Rns_poly.mul_inplace acc s;
    Rns_poly.add_inplace acc ct.polys.(i)
  done;
  acc

let decrypt ctx ks ct = Context.decode ctx ~scale:ct.scale (decrypt_poly ctx ks ct)
let decrypt_complex ctx ks ct = Context.decode_complex ctx ~scale:ct.scale (decrypt_poly ctx ks ct)

let encode_complex ctx ~level ~scale values =
  { poly = Context.encode_complex ctx ~level ~scale values; pt_level = level; pt_scale = scale }

let negate ct = { ct with polys = Array.map Rns_poly.neg ct.polys }

let add a b =
  check_scales "add" a.scale b.scale;
  check_levels "add" a.level b.level;
  let ka = size a and kb = size b in
  let polys =
    Array.init (max ka kb) (fun i ->
        if i < ka && i < kb then Rns_poly.add a.polys.(i) b.polys.(i)
        else if i < ka then a.polys.(i)
        else b.polys.(i))
  in
  { a with polys }

let sub a b =
  check_scales "sub" a.scale b.scale;
  check_levels "sub" a.level b.level;
  let ka = size a and kb = size b in
  let polys =
    Array.init (max ka kb) (fun i ->
        if i < ka && i < kb then Rns_poly.sub a.polys.(i) b.polys.(i)
        else if i < ka then a.polys.(i)
        else Rns_poly.neg b.polys.(i))
  in
  { a with polys }

let check_plain op ct pt =
  check_levels op ct.level pt.pt_level;
  ignore op

let add_plain ct pt =
  check_plain "add_plain" ct pt;
  check_scales "add_plain" ct.scale pt.pt_scale;
  let polys = Array.copy ct.polys in
  polys.(0) <- Rns_poly.add polys.(0) pt.poly;
  { ct with polys }

let sub_plain ct pt =
  check_plain "sub_plain" ct pt;
  check_scales "sub_plain" ct.scale pt.pt_scale;
  let polys = Array.copy ct.polys in
  polys.(0) <- Rns_poly.sub polys.(0) pt.poly;
  { ct with polys }

let multiply a b =
  check_levels "multiply" a.level b.level;
  let ka = size a and kb = size b in
  let k = ka + kb - 1 in
  let polys =
    Array.init k (fun _ -> Rns_poly.zero ~tables:(Rns_poly.tables a.polys.(0)))
  in
  for i = 0 to ka - 1 do
    for j = 0 to kb - 1 do
      Rns_poly.mul_acc polys.(i + j) a.polys.(i) b.polys.(j)
    done
  done;
  { polys; level = a.level; scale = a.scale *. b.scale }

let multiply_plain ct pt =
  check_plain "multiply_plain" ct pt;
  { ct with polys = Array.map (fun p -> Rns_poly.mul p pt.poly) ct.polys; scale = ct.scale *. pt.pt_scale }

let relinearize ctx ks ct =
  if size ct <> 3 then raise (Size_error (Printf.sprintf "relinearize: size %d, need 3" (size ct)));
  let d0, d1 = Keys.switch ctx ks.Keys.relin ~level:ct.level ct.polys.(2) in
  (* [d0]/[d1] are owned by this call (fresh out of the key switch), so
     the original ciphertext halves add into them; [ct.polys] may be
     shared with other consumers in the dataflow graph and is not
     mutated. *)
  Rns_poly.add_inplace d0 ct.polys.(0);
  Rns_poly.add_inplace d1 ct.polys.(1);
  { ct with polys = [| d0; d1 |] }

let rescale ctx ct =
  if ct.level <= 1 then raise (Level_mismatch "rescale: already at the last element");
  let e = ct.level - 1 in
  let ev = Context.element_value ctx e in
  (* An element spans one or two machine primes; one division by their
     product, in the NTT domain, covers both. *)
  let pc = Context.prime_count_for_level ctx ct.level - Context.prime_count_for_level ctx e in
  { polys = Array.map (fun p -> Rns_poly.rescale_many p pc) ct.polys; level = e; scale = ct.scale /. ev }

let mod_switch ctx ct =
  if ct.level <= 1 then raise (Level_mismatch "mod_switch: already at the last element");
  let e = ct.level - 1 in
  let pc = Context.prime_count_for_level ctx ct.level - Context.prime_count_for_level ctx e in
  { ct with polys = Array.map (fun p -> Rns_poly.drop_many p pc) ct.polys; level = e }

let apply_galois ctx ks ct g =
  if size ct <> 2 then raise (Size_error "galois: size-2 ciphertext required");
  let key = match Keys.find_galois ks g with Some k -> k | None -> raise (Missing_galois_key g) in
  let c0g = Rns_poly.galois ct.polys.(0) g in
  (* Both halves permute in the NTT domain; key switching decomposes
     from NTT rows. *)
  let c1g = Rns_poly.galois ct.polys.(1) g in
  let d0, d1 = Keys.switch ctx key ~level:ct.level c1g in
  (* [c0g] is a fresh permutation output, safe to mutate. *)
  Rns_poly.add_inplace c0g d0;
  { ct with polys = [| c0g; d1 |] }

let rotate ctx ks ct steps =
  let steps = ((steps mod Context.slots ctx) + Context.slots ctx) mod Context.slots ctx in
  if steps = 0 then ct else apply_galois ctx ks ct (Context.galois_elt_rotate ctx steps)

let rotate_hoisted ctx ks ct steps =
  if size ct <> 2 then raise (Size_error "rotate_hoisted: size-2 ciphertext required");
  let slots = Context.slots ctx in
  let normed = List.map (fun s -> ((s mod slots) + slots) mod slots) steps in
  if List.for_all (fun s -> s = 0) normed then List.map (fun _ -> ct) normed
  else begin
    (* Resolve and depth-check every key before paying for the
       decomposition. *)
    let keys =
      List.map
        (fun s ->
          if s = 0 then None
          else
            let g = Context.galois_elt_rotate ctx s in
            match Keys.find_galois ks g with
            | Some key ->
                Keys.check_depth key ~level:ct.level;
                Some (g, key)
            | None -> raise (Missing_galois_key g))
        normed
    in
    let d = Keys.decompose ctx ~level:ct.level ct.polys.(1) in
    List.map
      (function
        | None -> ct
        | Some (g, key) ->
            let d0, d1 = Keys.apply_decomposed ~galois:g ctx key d in
            (* Same tail as [apply_galois]: the permuted c0 is fresh,
               safe to fold the correction into. *)
            let c0g = Rns_poly.galois ct.polys.(0) g in
            Rns_poly.add_inplace c0g d0;
            { ct with polys = [| c0g; d1 |] })
      keys
  end

let conjugate ctx ks ct = apply_galois ctx ks ct (Context.galois_elt_conjugate ctx)
