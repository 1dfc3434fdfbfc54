(* Auto-vectorization (lib/core/vectorize.ml): the correctness story —

   1. the rewrite is semantics-preserving: on random scalar-shaped DAGs
      (two multiplicative depths, widths 1/3/8/64, non-power-of-two
      groups, mixed Scal/Vec bindings including non-dividing lengths)
      the vectorized program under the reference semantics, with packed
      bindings, scatters back to the naive program's outputs;
   2. the full pipeline agrees under encryption: the vectorized compile
      decrypts within tolerance of both the un-vectorized compile and
      the exact reference result;
   3. programs with nothing to pack are returned untouched (physically
      the same program), so the pass is safe on by default;
   4. invalid packed layouts are refused as EVA-E208;
   5. packing composes with cross-request slot batching: a vectorized
      program served in one 8-wide batch is bit-identical to a direct
      [rebind_batched] replay, member by member;
   6. the rewritten graph prices under the Cost/Makespan models like
      any other compiled program;
   7. on the naive scalar programs (a 64-element dot product, a
      16-element polynomial) packing fires, the dot product needs >= 8x
      fewer input ciphertexts, and both pipelines decrypt accurately. *)

module B = Eva_core.Builder
module Ir = Eva_core.Ir
module Passes = Eva_core.Passes
module Validate = Eva_core.Validate
module Compile = Eva_core.Compile
module Reference = Eva_core.Reference
module Executor = Eva_core.Executor
module Vectorize = Eva_core.Vectorize
module Serve = Eva_schedule.Serve
module Cost = Eva_schedule.Cost
module Makespan = Eva_schedule.Makespan
module Wire = Eva_ckks.Wire
module Diag = Eva_diag.Diag

let vs = 8

(* --- scalar-shaped generators --------------------------------------- *)

(* k-element dot product: k isomorphic multiply chains joined by a
   linear ADD fold (depth 1, one reduction group). *)
let scalar_dot k =
  let b = B.create ~name:(Printf.sprintf "dot%d" k) ~vec_size:vs () in
  let term i =
    B.mul
      (B.input b ~scale:30 (Printf.sprintf "x%d" i))
      (B.input b ~scale:30 (Printf.sprintf "y%d" i))
  in
  let sum = List.fold_left B.add (term 0) (List.init (k - 1) (fun i -> term (i + 1))) in
  B.output b "dot" ~scale:30 sum;
  B.program b

(* Depth-2 variant: each term is x_i * x_i * y_i. *)
let scalar_dot_deep k =
  let b = B.create ~name:(Printf.sprintf "deep%d" k) ~vec_size:vs () in
  let term i =
    let x = B.input b ~scale:30 (Printf.sprintf "x%d" i) in
    let y = B.input b ~scale:30 (Printf.sprintf "y%d" i) in
    B.mul (B.mul x x) y
  in
  let sum = List.fold_left B.add (term 0) (List.init (k - 1) (fun i -> term (i + 1))) in
  B.output b "dot" ~scale:30 sum;
  B.program b

(* k per-element outputs of one polynomial with a shared constant (no
   reduction; one output group). *)
let scalar_poly k =
  let b = B.create ~name:(Printf.sprintf "poly%d" k) ~vec_size:vs () in
  let c = B.const_scalar b ~scale:60 0.5 in
  List.iteri
    (fun i x -> B.output b (Printf.sprintf "p%d" i) ~scale:30 (B.add (B.mul x x) c))
    (List.init k (fun i -> B.input b ~scale:30 (Printf.sprintf "x%d" i)));
  B.program b

(* A dot where every term shares one y input (P_shared operand lane). *)
let scalar_dot_shared_y k =
  let b = B.create ~name:(Printf.sprintf "shy%d" k) ~vec_size:vs () in
  let y = B.input b ~scale:30 "y" in
  let term i = B.mul (B.input b ~scale:30 (Printf.sprintf "x%d" i)) y in
  let sum = List.fold_left B.add (term 0) (List.init (k - 1) (fun i -> term (i + 1))) in
  B.output b "dot" ~scale:30 sum;
  B.program b

let input_names p =
  List.filter_map
    (fun n -> match n.Ir.op with Ir.Input (_, nm) -> Some nm | _ -> None)
    (Ir.inputs p)

let random_bindings st p =
  List.map
    (fun name ->
      match Random.State.int st 4 with
      | 0 -> (name, Reference.Scal (Random.State.float st 2.0 -. 1.0))
      | 1 ->
          (* Non-dividing length: zero-pads at the source width, and the
             pass must preserve exactly that value. *)
          (name, Reference.Vec (Array.init 3 (fun _ -> Random.State.float st 2.0 -. 1.0)))
      | 2 -> (name, Reference.Vec (Array.init (vs / 2) (fun _ -> Random.State.float st 2.0 -. 1.0)))
      | _ -> (name, Reference.Vec (Array.init vs (fun _ -> Random.State.float st 2.0 -. 1.0))))
    (input_names p)

let check_close ~tol what expected got =
  List.iter
    (fun (name, v) ->
      match List.assoc_opt name got with
      | None -> Alcotest.failf "%s: output %S missing" what name
      | Some w ->
          if Array.length w <> Array.length v then
            Alcotest.failf "%s: %s length %d vs %d" what name (Array.length v) (Array.length w);
          Array.iteri
            (fun i xv ->
              if Float.abs (xv -. w.(i)) > tol then
                Alcotest.failf "%s: %s slot %d: %.12g vs %.12g" what name i xv w.(i))
            v)
    expected

(* --- 1. reference equivalence on random scalar-shaped DAGs ----------- *)

let shapes = [| scalar_dot; scalar_dot_deep; scalar_poly; scalar_dot_shared_y |]

let prop_reference_equivalence =
  QCheck2.Test.make
    ~name:"vectorized reference = naive reference (widths 1/3/8/64, 2 depths, 4 shapes)" ~count:80
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 23 |] in
      let k = [| 1; 3; 8; 64 |].(Random.State.int st 4) in
      let p = shapes.(Random.State.int st 4) k in
      let binds = random_bindings st p in
      let expected = Reference.execute p binds in
      let q, pk = Passes.vectorize p in
      (match pk with
      | None ->
          if k >= 2 then QCheck2.Test.fail_reportf "pass did not fire on %s k=%d" p.Ir.prog_name k;
          if not (q == p) then QCheck2.Test.fail_reportf "None packing but a rewritten program"
      | Some pk ->
          if k < 2 then QCheck2.Test.fail_reportf "pass fired on a width-1 program";
          Validate.check_packing pk q;
          let got =
            Vectorize.unpack_outputs pk (Reference.execute q (Vectorize.pack_bindings pk binds))
          in
          check_close ~tol:1e-9 "reference" expected got);
      true)

(* --- 2. encrypted pipeline agreement --------------------------------- *)

let prop_encrypted_equivalence =
  QCheck2.Test.make ~name:"vectorized compile decrypts like naive compile and Reference" ~count:8
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 31 |] in
      let k = [| 3; 8 |].(Random.State.int st 2) in
      let p = shapes.(Random.State.int st 4) k in
      let binds = random_bindings st p in
      let expected = Reference.execute p binds in
      let run vectorize =
        let c = Compile.run ~vectorize p in
        let r = Executor.execute ~seed:5 ~ignore_security:true ~log_n:10 c binds in
        r.Executor.outputs
      in
      (* Executor.execute packs bindings and scatters outputs itself, so
         both compiles answer under the source program's names. *)
      check_close ~tol:1e-3 "vectorized vs reference" expected (run true);
      check_close ~tol:1e-3 "naive vs reference" expected (run false);
      true)

(* --- mask path: non-power-of-two group whose pad lanes are not zero -- *)

let test_mask_padding () =
  (* t_i = x_i + s with s a shared input, and every t_i kept alive by a
     second consumer so the fold cannot flatten through it: the packed
     value is x_i + s per lane, whose pad lane holds s (not zero) — the
     pass must mask before the rotate-and-sum. *)
  let b = B.create ~name:"mask3" ~vec_size:vs () in
  let s = B.input b ~scale:30 "s" in
  let t = Array.init 3 (fun i -> B.add (B.input b ~scale:30 (Printf.sprintf "x%d" i)) s) in
  B.output b "sum" ~scale:30 (B.add (B.add t.(0) t.(1)) t.(2));
  B.output b "prod" ~scale:30 (B.mul (B.mul t.(0) t.(1)) t.(2));
  let p = B.program b in
  let st = Random.State.make [| 77 |] in
  let binds = random_bindings st p in
  let expected = Reference.execute p binds in
  match Passes.vectorize p with
  | _, None -> Alcotest.fail "pass did not fire on the masked reduction"
  | q, Some pk ->
      Validate.check_packing pk q;
      let got =
        Vectorize.unpack_outputs pk (Reference.execute q (Vectorize.pack_bindings pk binds))
      in
      check_close ~tol:1e-9 "masked reduction" expected got

(* --- 3. programs the pass must leave unchanged ----------------------- *)

let test_leaves_unchanged () =
  let unchanged what p =
    match Passes.vectorize p with
    | q, None -> Alcotest.(check bool) (what ^ ": same program") true (q == p)
    | _, Some _ -> Alcotest.failf "%s: pass fired" what
  in
  unchanged "width-1 chain" (scalar_dot 1);
  (* Mixed scales: lanes cannot share one packed input. *)
  let b = B.create ~vec_size:vs () in
  let t0 = B.mul (B.input b ~scale:30 "x0") (B.input b ~scale:30 "y0") in
  let t1 = B.mul (B.input b ~scale:40 "x1") (B.input b ~scale:40 "y1") in
  B.output b "out" ~scale:30 (B.add t0 t1);
  unchanged "mixed scales" (B.program b);
  (* Per-lane rotations are not elementwise: the walk bails. *)
  let b = B.create ~vec_size:vs () in
  let t0 = B.rotate_left (B.input b ~scale:30 "x0") 1 in
  let t1 = B.rotate_left (B.input b ~scale:30 "x1") 2 in
  B.output b "out" ~scale:30 (B.add t0 t1);
  unchanged "per-lane rotations" (B.program b);
  (* Already-vector code: one input flowing through rotations. *)
  let b = B.create ~vec_size:vs () in
  let x = B.input b ~scale:30 "x" in
  B.output b "out" ~scale:30 (B.mul (B.add x (B.rotate_left x 1)) x);
  unchanged "vector-shaped program" (B.program b)

(* --- 4. invalid packed layouts are EVA-E208 -------------------------- *)

let test_e208_golden () =
  let q, pk =
    match Passes.vectorize (scalar_dot 8) with
    | q, Some pk -> (q, pk)
    | _, None -> Alcotest.fail "pass did not fire"
  in
  Validate.check_packing pk q;
  let expect_e208 what bad =
    match Validate.check_packing bad q with
    | () -> Alcotest.failf "%s: accepted" what
    | exception Diag.Error d ->
        Alcotest.(check int) (what ^ ": EVA-E208") Diag.validate_packing d.Diag.code
  in
  let g = List.hd pk.Vectorize.in_groups in
  expect_e208 "base not a power of two" { pk with Vectorize.base = 3 };
  expect_e208 "base exceeds the widened width" { pk with Vectorize.base = 4 * q.Ir.vec_size };
  expect_e208 "span not a power of two"
    { pk with Vectorize.in_groups = [ { g with Vectorize.in_span = 3 } ] };
  expect_e208 "span * base exceeds the program width"
    { pk with Vectorize.in_groups = [ { g with Vectorize.in_span = 4 * q.Ir.vec_size } ] };
  expect_e208 "more members than reserved lanes"
    { pk with Vectorize.in_groups = [ { g with Vectorize.in_span = 1 } ] };
  expect_e208 "packed input missing from the program"
    { pk with Vectorize.in_groups = [ { g with Vectorize.packed_input = "nope" } ] };
  expect_e208 "duplicate packed input names"
    { pk with Vectorize.in_groups = [ g; g ] };
  expect_e208 "packed output missing from the program"
    {
      pk with
      Vectorize.out_groups =
        [ { Vectorize.packed_output = "nope"; out_members = [| "a"; "b" |]; out_span = 2 } ];
    }

(* --- 5. composition with cross-request slot batching ------------------ *)

let request_val id i = Float.sin (float_of_int ((7 * id) + i)) /. 4.0
let dot_k = 4

let request id =
  {
    Wire.req_id = id;
    deadline_ms = None;
    req_inputs =
      List.concat_map
        (fun i ->
          [
            (Printf.sprintf "x%d" i, [| request_val id i |]);
            (Printf.sprintf "y%d" i, [| request_val (id + 100) i |]);
          ])
        (List.init dot_k Fun.id);
  }

let member_bindings id =
  List.map (fun (n, v) -> (n, Reference.Vec v)) (request id).Wire.req_inputs

let serve_all ~config c engine requests =
  let results = Hashtbl.create 16 in
  let lock = Mutex.create () in
  let respond (r : Wire.response) =
    Mutex.lock lock;
    Hashtbl.replace results r.Wire.resp_id r.Wire.payload;
    Mutex.unlock lock
  in
  let t = Serve.start ~config ~respond c engine in
  List.iter (Serve.submit t) requests;
  let stats = Serve.drain t in
  (results, stats)

let test_batch8_bit_identical_replay () =
  let c = Compile.run (scalar_dot dot_k) in
  Alcotest.(check bool) "vectorized" true (c.Compile.packing <> None);
  let zero =
    List.filter_map
      (fun n ->
        match n.Ir.op with
        | Ir.Input (_, nm) -> Some (nm, Reference.Vec (Array.make c.Compile.program.Ir.vec_size 0.0))
        | _ -> None)
      (Ir.inputs c.Compile.program)
  in
  let engine () =
    Executor.prepare ~seed:1 ~ignore_security:true ~log_n:10
      ~extra_rotations:(Compile.batch_rotations c ~max_lanes:8) c zero
  in
  let ids = List.init 8 Fun.id in
  let cfg = { Serve.default_config with Serve.pipeline = 0; queue_depth = 8; max_batch = 8 } in
  let results, stats = serve_all ~config:cfg c (engine ()) (List.map request ids) in
  Alcotest.(check int) "one execution for eight requests" 1 stats.Serve.executions;
  (* Direct replay: same seeds, same engine preparation, batch driven by
     hand — must be bit-identical to the daemon's answers after the
     same unpacking. *)
  let cb = Compile.batch c ~lanes:8 in
  let e =
    Executor.rebind_batched
      ~seeds:(Array.of_list (List.map (Serve.request_seed cfg) ids))
      (engine ()) cb
      (Array.of_list (List.map member_bindings ids))
  in
  let outputs, _ = Executor.decode e (Executor.run_graph e cb) in
  List.iteri
    (fun b id ->
      let direct =
        Compile.unpack_outputs cb
          (List.map (fun (n, v) -> (n, Executor.extract_lane ~lanes:8 ~lane:b v)) outputs)
      in
      let served =
        match Hashtbl.find_opt results id with
        | Some (Ok o) -> o
        | Some (Error d) -> Alcotest.failf "request %d failed: %s" id (Diag.to_string d)
        | None -> Alcotest.failf "request %d never answered" id
      in
      List.iter
        (fun (name, v) ->
          let w = List.assoc name served in
          Array.iteri
            (fun i xv ->
              if xv <> w.(i) then
                Alcotest.failf "request %d: %s slot %d: %h vs %h" id name i xv w.(i))
            v)
        direct;
      (* And each lane matches its own member's reference run. *)
      let expect = Reference.execute (scalar_dot dot_k) (member_bindings id) in
      check_close ~tol:1e-3 (Printf.sprintf "request %d vs reference" id) expect served)
    ids

(* --- 6. cost models price the rewritten graph ------------------------ *)

let test_cost_models_price_vectorized () =
  let c = Compile.run (scalar_dot 16) in
  Alcotest.(check bool) "vectorized" true (c.Compile.packing <> None);
  let costs = Cost.program_costs Cost.default_coefficients c in
  let cost n = Hashtbl.find costs n.Ir.id in
  let finite_positive =
    List.for_all (fun n -> Float.is_finite (cost n) && cost n >= 0.0) c.Compile.program.Ir.all_nodes
  in
  Alcotest.(check bool) "finite non-negative node costs" true finite_positive;
  let s = Makespan.simulate c.Compile.program ~cost ~workers:4 in
  Alcotest.(check bool) "makespan within work/critical-path bounds" true
    (s.Makespan.makespan >= s.Makespan.critical_path -. 1e-9
    && s.Makespan.makespan <= s.Makespan.work +. 1e-9)

(* --- 7. packing gates on the naive scalar programs -------------------- *)

(* A k = 64 scalar dot product (vec_size 1: one ciphertext per element)
   and a 16-element polynomial 0.5x^2 + x. Packing must fire for both,
   cut the dot product's Cipher inputs >= 8x, and both the naive and the
   packed pipeline must decrypt within 0.05 of Reference at log N 9. *)
let test_packing_gates () =
  let st = Random.State.make [| 53 |] in
  let scalars names = List.map (fun n -> (n, Reference.Scal (Random.State.float st 2.0 -. 1.0))) names in
  let cipher_inputs c =
    List.length
      (List.filter
         (fun n -> match n.Ir.op with Ir.Input (Ir.Cipher, _) -> true | _ -> false)
         (Ir.inputs c.Compile.program))
  in
  let gate name p bindings =
    let run vectorize =
      let c = Compile.run ~vectorize p in
      let r = Executor.execute ~seed:11 ~ignore_security:true ~log_n:9 c bindings in
      let err = Executor.max_abs_error r.Executor.outputs (Reference.execute p bindings) in
      if not (err < 0.05) then Alcotest.failf "%s (vectorize %b): max err %.3g" name vectorize err;
      c
    in
    let naive = run false and packed = run true in
    Alcotest.(check bool) (name ^ ": packing fires") true (packed.Compile.packing <> None);
    (cipher_inputs naive, cipher_inputs packed)
  in
  let k = 64 in
  let b = B.create ~name:"sdot64" ~vec_size:1 () in
  let name v i = Printf.sprintf "%s%d" v i in
  let term i = B.mul (B.input b ~scale:30 (name "x" i)) (B.input b ~scale:30 (name "y" i)) in
  B.output b "dot" ~scale:30 (List.fold_left B.add (term 0) (List.init (k - 1) (fun i -> term (i + 1))));
  let dot_bindings = scalars (List.init k (name "x") @ List.init k (name "y")) in
  let naive, packed = gate "dot64" (B.program b) dot_bindings in
  if naive < 8 * packed then Alcotest.failf "dot64 input ciphertexts %d -> %d (< 8x)" naive packed;
  let m = 16 in
  let b = B.create ~name:"spoly16" ~vec_size:1 () in
  let half = B.const_scalar b ~scale:30 0.5 in
  List.iter
    (fun i ->
      let x = B.input b ~scale:30 (name "x" i) in
      B.output b (name "y" i) ~scale:30 (B.add (B.mul (B.mul x x) half) x))
    (List.init m Fun.id);
  ignore (gate "poly16" (B.program b) (scalars (List.init m (name "x"))))

let () =
  let qt t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "vectorize"
    [
      ( "rewrite exactness",
        [
          qt prop_reference_equivalence;
          Alcotest.test_case "non-pow2 group with non-zero pad lanes is masked" `Quick
            test_mask_padding;
          Alcotest.test_case "nothing to pack: program untouched" `Quick test_leaves_unchanged;
        ] );
      ("encrypted pipeline", [ qt prop_encrypted_equivalence ]);
      ("layout validation", [ Alcotest.test_case "invalid packings are EVA-E208" `Quick test_e208_golden ]);
      ( "composition",
        [
          Alcotest.test_case "8-wide batch bit-identical to direct replay" `Quick
            test_batch8_bit_identical_replay;
          Alcotest.test_case "cost and makespan models price the packed graph" `Quick
            test_cost_models_price_vectorized;
        ] );
      ( "packing gates",
        [ Alcotest.test_case "dot64 >= 8x fewer inputs, both pipelines within 0.05" `Quick test_packing_gates ] );
    ]
