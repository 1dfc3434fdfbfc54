(* Seeded mutational fuzzer for the two untrusted input surfaces: .eva
   program text and the wire format (contexts, ciphertexts, evaluation
   keys). Valid seed documents are mutated (truncation, byte flips,
   token splices, slice deletion/duplication, huge digit runs) and fed
   to the readers; every input must either be accepted or raise a
   classified Eva_diag error. Out_of_memory, Stack_overflow, bare
   Failure/Invalid_argument or a hang are crashes.

     fuzz_inputs [--smoke] [--n COUNT] [--seed SEED]

   --smoke is the CI configuration: fixed seed, 2000 inputs, well under
   30 seconds. *)

module Serialize = Eva_core.Serialize
module Ctx = Eva_ckks.Context
module Keys = Eva_ckks.Keys
module Eval = Eva_ckks.Eval
module Wire = Eva_ckks.Wire
module Diag = Eva_diag.Diag

(* ---------------------------------------------------------------- *)
(* Seed documents                                                    *)
(* ---------------------------------------------------------------- *)

let eva_seeds =
  [
    "program \"fuzz\" vec_size 8 {\n  n0 = input cipher \"x\" scale 30\n  n1 = constant vector [1, 2, 3, 4] scale 10\n  n2 = multiply n0 n1\n  n3 = rotate_left n2 2\n  n4 = add n2 n3\n  output \"o\" n4 scale 30\n}\n";
    "program \"deep\" vec_size 16 {\n  n0 = input cipher \"x\" scale 25\n  n1 = constant scalar 2.25 scale 10\n  n2 = multiply n0 n0\n  n3 = rescale n2 20\n  n4 = modswitch n3\n  n5 = relinearize n2\n  n6 = sub n0 n0\n  n7 = negate n6\n  output \"a\" n7 scale 25\n  output \"b\" n4 scale 30\n}\n";
    (* Scalar-shaped seeds (mirroring corpus/ok-scalar-*.eva): mutations
       of these exercise the auto-vectorizer's planning walk — grouping,
       reduction flattening and the packed-layout builder. *)
    "program \"sdot\" vec_size 1 {\n  n0 = input cipher \"x0\" scale 30\n  n1 = input cipher \"x1\" scale 30\n  n2 = input cipher \"x2\" scale 30\n  n3 = input cipher \"y0\" scale 30\n  n4 = input cipher \"y1\" scale 30\n  n5 = input cipher \"y2\" scale 30\n  m0 = multiply n0 n3\n  m1 = multiply n1 n4\n  m2 = multiply n2 n5\n  a0 = add m0 m1\n  a1 = add a0 m2\n  output \"dot\" a1 scale 30\n}\n";
    "program \"spoly\" vec_size 1 {\n  n0 = input cipher \"x0\" scale 30\n  n1 = input cipher \"x1\" scale 30\n  n2 = input cipher \"x2\" scale 30\n  n3 = input cipher \"x3\" scale 30\n  c = constant scalar 0.5 scale 60\n  q0 = multiply n0 n0\n  q1 = multiply n1 n1\n  q2 = multiply n2 n2\n  q3 = multiply n3 n3\n  p0 = add q0 c\n  p1 = add q1 c\n  p2 = add q2 c\n  p3 = add q3 c\n  output \"y0\" p0 scale 30\n  output \"y1\" p1 scale 30\n  output \"y2\" p2 scale 30\n  output \"y3\" p3 scale 30\n}\n";
  ]

(* A tiny real context so the wire seeds are genuine well-formed
   documents (mutations then have interesting valid prefixes). *)
let ctx = Ctx.make ~ignore_security:true ~n:64 ~data_bits:[ 30; 30 ] ~special_bits:[ 30 ] ()

let wire_seeds =
  let st = Random.State.make [| 7 |] in
  let _secret, ks = Keys.generate ctx st ~galois_elts:[ Ctx.galois_elt_rotate ctx 1 ] in
  let v = Array.make (Ctx.slots ctx) 0.25 in
  let ct = Eval.encrypt ctx ks st (Eval.encode ctx ~level:2 ~scale:(Float.ldexp 1.0 30) v) in
  (* A size-3 ciphertext (unrelinearized product), as lazy
     relinearization puts on the wire: its poly-count field and third
     component are mutation targets of their own. *)
  let ct3 = Eval.multiply ct ct in
  (* Keys cut below the chain: their depth fields and shorter digits are
     mutation targets of their own. *)
  let g = Ctx.galois_elt_rotate ctx 1 in
  let _secret, cut =
    Keys.generate ~depths:{ Keys.relin_depth = 1; galois_depths = [ (g, 1) ] } ctx st ~galois_elts:[ g ]
  in
  [
    (`Ctx, Wire.to_string Wire.write_context ctx);
    (`Ct, Wire.to_string Wire.write_ciphertext ct);
    (`Ct, Wire.to_string Wire.write_ciphertext ct3);
    (`Keys, Wire.to_string Wire.write_eval_keys ks);
    (`Keys, Wire.to_string Wire.write_eval_keys cut);
  ]

(* Serving-protocol seeds for the batching surfaces: a request whose
   vector lengths do not divide the program width (the zero-padding
   encode path) and a daemon-stats frame with a batch histogram. *)
let serve_seeds =
  let req =
    Wire.to_string
      (fun buf () ->
        Wire.write_request buf ~id:3 ~deadline_ms:250
          [ ("x", [| 1.0; -0.5; 0.25 |]); ("w", [| 0.125 |]) ])
      ()
  in
  let stats =
    Wire.to_string Wire.write_stats
      {
        Wire.st_served = 12;
        st_failed = 2;
        st_shed = 1;
        st_retried = 0;
        st_queue = 3;
        st_p50_ms = 1.5;
        st_p99_ms = 12.25;
        st_executions = 5;
        st_batch_histogram = [| 1; 0; 1; 3 |];
        st_slots_occupied = 208;
        st_slots_available = 640;
        st_pt_hits = 40;
        st_pt_misses = 9;
      }
  in
  [ (`Req, req); (`Stats, stats) ]

(* ---------------------------------------------------------------- *)
(* Mutations                                                         *)
(* ---------------------------------------------------------------- *)

let splice_tokens =
  [|
    "program"; "context"; "ciphertext"; "evalkeys"; "input"; "output"; "scale"; "vec_size";
    "{"; "}"; "["; "]"; "="; "\""; "-"; "-1"; "0"; "nan"; "inf"; "1e999";
    "999999999999999999"; "99999999999999999999999999"; "0x1p1024"; "4611686018427387904";
  |]

let mutate st s =
  let len = String.length s in
  match Random.State.int st 7 with
  | 0 ->
      (* truncate *)
      if len = 0 then s else String.sub s 0 (Random.State.int st len)
  | 1 ->
      (* flip one byte *)
      if len = 0 then s
      else begin
        let b = Bytes.of_string s in
        let i = Random.State.int st len in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Random.State.int st 8)));
        Bytes.to_string b
      end
  | 2 ->
      (* splice a token at a random position *)
      let i = if len = 0 then 0 else Random.State.int st len in
      let tok = splice_tokens.(Random.State.int st (Array.length splice_tokens)) in
      String.sub s 0 i ^ " " ^ tok ^ " " ^ String.sub s i (len - i)
  | 3 ->
      (* delete a slice *)
      if len < 2 then s
      else begin
        let i = Random.State.int st (len - 1) in
        let l = 1 + Random.State.int st (min 40 (len - i - 1)) in
        String.sub s 0 i ^ String.sub s (i + l) (len - i - l)
      end
  | 4 ->
      (* duplicate a slice *)
      if len < 2 then s
      else begin
        let i = Random.State.int st (len - 1) in
        let l = 1 + Random.State.int st (min 60 (len - i - 1)) in
        String.sub s 0 (i + l) ^ String.sub s i (len - i)
      end
  | 5 ->
      (* bump one small integer field up or down by a little: hits
         off-by-one paths in count/level/size validation (a poly-count of
         4 where 3 was written, a level one past the chain) that byte
         flips rarely produce *)
      let runs = ref [] in
      let i = ref 0 in
      while !i < len do
        if s.[!i] >= '0' && s.[!i] <= '9' then begin
          let j = ref !i in
          while !j < len && s.[!j] >= '0' && s.[!j] <= '9' do incr j done;
          if !j - !i <= 9 then runs := (!i, !j - !i) :: !runs;
          i := !j
        end
        else incr i
      done;
      let runs = Array.of_list !runs in
      if Array.length runs = 0 then s
      else begin
        let start, l = runs.(Random.State.int st (Array.length runs)) in
        let value = int_of_string (String.sub s start l) in
        let bumped = max 0 (value + Random.State.int st 7 - 3) in
        String.sub s 0 start ^ string_of_int bumped ^ String.sub s (start + l) (len - start - l)
      end
  | _ ->
      (* blow up a digit run: the classic huge-length-field attack *)
      let b = Buffer.create (len + 32) in
      let injected = ref false in
      String.iter
        (fun c ->
          Buffer.add_char b c;
          if (not !injected) && c >= '0' && c <= '9' && Random.State.int st 8 = 0 then begin
            Buffer.add_string b "999999999999";
            injected := true
          end)
        s;
      Buffer.contents b

let rec mutate_n st n s = if n = 0 then s else mutate_n st (n - 1) (mutate st s)

(* ---------------------------------------------------------------- *)
(* Driver                                                            *)
(* ---------------------------------------------------------------- *)

type stats = { mutable accepted : int; mutable rejected : int }

let feed kind input =
  let pos = ref 0 in
  match kind with
  | `Eva ->
      (* Parsed programs continue into the compiler front half: input
         validation and auto-vectorization must accept, reject with a
         classified error, or rewrite — never crash. (The vectorizer
         runs only on programs that validate, as in Compile.run.) *)
      let p = Serialize.of_string input in
      Eva_core.Validate.check_input_program p;
      ignore (Eva_core.Passes.vectorize p)
  | `Ctx -> ignore (Wire.read_context ~ignore_security:true input ~pos)
  | `Ct -> ignore (Wire.read_ciphertext ctx input ~pos)
  | `Keys -> ignore (Wire.read_eval_keys ctx input ~pos)
  | `Req -> ignore (Wire.read_request input ~pos)
  | `Stats -> ignore (Wire.read_stats input ~pos)

let kind_name = function
  | `Eva -> "eva"
  | `Ctx -> "ctx"
  | `Ct -> "ct"
  | `Keys -> "keys"
  | `Req -> "request"
  | `Stats -> "stats"

let run ~seed ~count =
  let st = Random.State.make [| seed |] in
  let stats = { accepted = 0; rejected = 0 } in
  let readers = [| `Eva; `Ctx; `Ct; `Keys; `Req; `Stats |] in
  let seeds = List.map (fun s -> (`Eva, s)) eva_seeds @ wire_seeds @ serve_seeds in
  let seeds = Array.of_list seeds in
  let t0 = Unix.gettimeofday () in
  for i = 1 to count do
    let own_kind, body = seeds.(Random.State.int st (Array.length seeds)) in
    (* Mostly fuzz a document against its own reader; sometimes cross-feed
       one format into another reader. *)
    let kind =
      if Random.State.int st 8 = 0 then readers.(Random.State.int st (Array.length readers))
      else own_kind
    in
    let input = mutate_n st (1 + Random.State.int st 4) body in
    match feed kind input with
    | () -> stats.accepted <- stats.accepted + 1
    | exception e -> (
        match Diag.classify e with
        | Some _ -> stats.rejected <- stats.rejected + 1
        | None ->
            Printf.eprintf "fuzz: CRASH on input %d (reader %s, seed %d): %s\n" i (kind_name kind)
              seed (Printexc.to_string e);
            let shown = if String.length input > 400 then String.sub input 0 400 ^ "..." else input in
            Printf.eprintf "--- input ---\n%s\n-------------\n" shown;
            exit 1)
  done;
  Printf.printf "fuzz: %d inputs in %.1fs — %d accepted, %d rejected (structured), 0 crashes\n"
    count
    (Unix.gettimeofday () -. t0)
    stats.accepted stats.rejected

let () =
  let smoke = ref false in
  let count = ref 2000 in
  let seed = ref (truncate (Unix.time ()) land 0xFFFFFF) in
  let spec =
    [
      ("--smoke", Arg.Set smoke, "fixed seed, 2000 inputs (the CI configuration)");
      ("--n", Arg.Set_int count, "number of inputs (default 2000)");
      ("--seed", Arg.Set_int seed, "mutation seed (default: time-derived)");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "fuzz_inputs [options]";
  if !smoke then begin
    seed := 42;
    count := 2000
  end;
  run ~seed:!seed ~count:!count
