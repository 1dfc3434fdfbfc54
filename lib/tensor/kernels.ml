module B = Eva_core.Builder
module Ir = Eva_core.Ir
module Analysis = Eva_core.Analysis
module Reference = Eva_core.Reference

type mode = [ `Eva | `Chet ]

type ctx = {
  builder : B.t;
  weight_scale : int;
  mask_scale : int;
  cipher_scale : int;
  s_f : int;
  mode : mode;
  rot_memo : (int * int, B.expr) Hashtbl.t;
}

let make_ctx ?(s_f = 60) ?(mask_scale = 15) ~mode ~weight_scale ~cipher_scale builder =
  { builder; weight_scale; mask_scale; cipher_scale; s_f; mode; rot_memo = Hashtbl.create 64 }

(* Emit each distinct rotation of a source at most once, keyed by
   (source node id, step). Compile.run leaves CSE off by default, so
   without the memo a layer would emit duplicate Rotate nodes and the
   executor's RotateMany hoist grouping (decompose once, rotate many)
   would pay a key switch per duplicate. Rotations created here all
   fan out of their shared source, exactly the shape rotation_groups
   looks for. *)
let rotate_shared ctx x rot =
  if rot = 0 then x
  else
    let key = ((B.ir_node x).Ir.id, rot) in
    match Hashtbl.find_opt ctx.rot_memo key with
    | Some e -> e
    | None ->
        let e = B.rotate_left x rot in
        Hashtbl.replace ctx.rot_memo key e;
        e

type layout = {
  channels : int;
  height : int;
  width : int;
  gh : int;
  gw : int;
  si : int;
  sj : int;
  cpc : int;
}

type image = { exprs : B.expr array; layout : layout }

let grid l = l.gh * l.gw
let slot l c i j = ((c mod l.cpc) * grid l) + (i * l.si * l.gw) + (j * l.sj)
let ct_of l c = c / l.cpc
let num_cts l = (l.channels + l.cpc - 1) / l.cpc
let vec_size ctx = (B.program ctx.builder).Ir.vec_size

let dense ~vs ~channels ~height ~width =
  let g = height * width in
  if g > vs then invalid_arg "Kernels.dense: grid exceeds vector size";
  { channels; height; width; gh = height; gw = width; si = 1; sj = 1; cpc = max 1 (vs / g) }

let input_image ctx ~scale ~name ~channels ~height ~width =
  let layout = dense ~vs:(vec_size ctx) ~channels ~height ~width in
  let exprs =
    Array.init (num_cts layout) (fun t -> B.input ctx.builder ~scale (Printf.sprintf "%s_%d" name t))
  in
  { exprs; layout }

let image_bindings ~vs ~layout:l ~name data =
  if Array.length data <> l.channels * l.height * l.width then invalid_arg "Kernels.image_bindings: size";
  List.init (num_cts l) (fun t ->
      let v = Array.make vs 0.0 in
      for c = t * l.cpc to min l.channels ((t + 1) * l.cpc) - 1 do
        for i = 0 to l.height - 1 do
          for j = 0 to l.width - 1 do
            v.(slot l c i j) <- data.((c * l.height * l.width) + (i * l.width) + j)
          done
        done
      done;
      (Printf.sprintf "%s_%d" name t, Reference.Vec v))

let read_image l vec_of_ct =
  Array.init
    (l.channels * l.height * l.width)
    (fun idx ->
      let c = idx / (l.height * l.width) in
      let r = idx mod (l.height * l.width) in
      let i = r / l.width and j = r mod l.width in
      (vec_of_ct (ct_of l c)).(slot l c i j))

let output_image ctx ~scale ~name img =
  Array.iteri
    (fun t e -> B.output ctx.builder (Printf.sprintf "%s_%d" name t) ~scale e)
    img.exprs

(* CHET-style per-kernel normalization: lift the scale to s_f +
   cipher_scale with a multiply by 1, so the waterline pass rescales it
   back to exactly the cipher scale — one chain element per kernel. The
   scale analysis (O(nodes)) runs once per kernel, off the hot path. *)
let finish_kernel ctx img =
  match ctx.mode with
  | `Eva -> img
  | `Chet ->
      let scales = Analysis.scales (B.program ctx.builder) in
      let exprs =
        Array.map
          (fun e ->
            let s = Hashtbl.find scales (B.ir_node e).Ir.id in
            if s <= ctx.cipher_scale then e
            else begin
              let lift = ctx.s_f + ctx.cipher_scale - s in
              if lift <= 0 then e else B.mul e (B.const_scalar ctx.builder ~scale:lift 1.0)
            end)
          img.exprs
      in
      { img with exprs }

(* Accumulate [rotate_left src rot * mask] terms grouped by
   (src ct, dst ct, rotation), then sum per destination ciphertext. *)
module Groups = struct
  type t = { vs : int; masks : (int * int * int, float array) Hashtbl.t }

  let create vs = { vs; masks = Hashtbl.create 64 }

  let mask g ~src_ct ~dst_ct ~rot =
    match Hashtbl.find_opt g.masks (src_ct, dst_ct, rot) with
    | Some m -> m
    | None ->
        let m = Array.make g.vs 0.0 in
        Hashtbl.replace g.masks (src_ct, dst_ct, rot) m;
        m

  (* Destination expressions, one per dst ct in [0, n_dst). A destination
     with no contribution (possible only with all-zero weights) becomes an
     explicit zero. *)
  let emit g ctx ~scale srcs ~n_dst =
    let per_dst = Array.make n_dst [] in
    Hashtbl.iter
      (fun (src_ct, dst_ct, rot) mask ->
        let x = srcs.(src_ct) in
        let rotated = rotate_shared ctx x rot in
        let term = B.mul rotated (B.const_vector ctx.builder ~scale mask) in
        per_dst.(dst_ct) <- term :: per_dst.(dst_ct))
      g.masks;
    Array.map
      (function
        | [] -> B.mul srcs.(0) (B.const_vector ctx.builder ~scale (Array.make g.vs 0.0))
        | terms -> Eva_core.Simd.balanced_sum ~add:B.add terms)
      per_dst
end

let conv2d ctx img ~weights ~stride =
  let l = img.layout in
  let out_channels = Array.length weights in
  let in_channels = Array.length weights.(0) in
  if in_channels <> l.channels then invalid_arg "Kernels.conv2d: channel mismatch";
  let k = Array.length weights.(0).(0) in
  let pad = k / 2 in
  let oh = (l.height + stride - 1) / stride and ow = (l.width + stride - 1) / stride in
  let out_layout = { l with channels = out_channels; height = oh; width = ow; si = l.si * stride; sj = l.sj * stride } in
  let g = grid l in
  let vs = vec_size ctx in
  let groups = Groups.create vs in
  for o = 0 to out_channels - 1 do
    for c = 0 to in_channels - 1 do
      for di = 0 to k - 1 do
        for dj = 0 to k - 1 do
          let w = weights.(o).(c).(di).(dj) in
          if w <> 0.0 then begin
            let rot =
              (((c mod l.cpc) - (o mod out_layout.cpc)) * g)
              + ((di - pad) * l.si * l.gw)
              + ((dj - pad) * l.sj)
            in
            let mask = Groups.mask groups ~src_ct:(ct_of l c) ~dst_ct:(ct_of out_layout o) ~rot in
            for i = 0 to oh - 1 do
              for j = 0 to ow - 1 do
                let src_i = (i * stride) + di - pad and src_j = (j * stride) + dj - pad in
                if src_i >= 0 && src_i < l.height && src_j >= 0 && src_j < l.width then begin
                  let dst = slot out_layout o i j in
                  mask.(dst) <- mask.(dst) +. w
                end
              done
            done
          end
        done
      done
    done
  done;
  let exprs = Groups.emit groups ctx ~scale:ctx.weight_scale img.exprs ~n_dst:(num_cts out_layout) in
  finish_kernel ctx { exprs; layout = out_layout }

let pool_general ctx img ~kh ~kw =
  let l = img.layout in
  if l.height mod kh <> 0 || l.width mod kw <> 0 then invalid_arg "Kernels.avg_pool: size must divide";
  let oh = l.height / kh and ow = l.width / kw in
  let out_layout = { l with height = oh; width = ow; si = l.si * kh; sj = l.sj * kw } in
  let vs = vec_size ctx in
  let inv = 1.0 /. float_of_int (kh * kw) in
  let sum_offsets = Eva_core.Simd.sum_offsets ~add:B.add ~rotate:(rotate_shared ctx) in
  let exprs =
    Array.mapi
      (fun t x ->
        let summed = sum_offsets ~count:kh ~step:(l.si * l.gw) (sum_offsets ~count:kw ~step:l.sj x) in
        (* Average factor and garbage suppression in one mask. *)
        let mask = Array.make vs 0.0 in
        let ch_lo = t * l.cpc and ch_hi = min l.channels ((t + 1) * l.cpc) - 1 in
        for c = ch_lo to ch_hi do
          for i = 0 to oh - 1 do
            for j = 0 to ow - 1 do
              mask.(slot out_layout c i j) <- inv
            done
          done
        done;
        B.mul summed (B.const_vector ctx.builder ~scale:ctx.mask_scale mask))
      img.exprs
  in
  finish_kernel ctx { exprs; layout = out_layout }

let avg_pool ctx img ~k = pool_general ctx img ~kh:k ~kw:k

(* Gather to a dense h x w grid. In-ciphertext positions after each stage
   (G the old physical channel block, lc = c mod cpc):
   A (dense columns): lc*G + i*si*gw + j
   B (dense rows):    lc*G + i*width + j
   C (dense, new cpc' and grid G' = h*w): (c mod cpc')*G' + i*width + j
   Stages A and B are per-ciphertext; stage C also moves channels across
   ciphertexts. *)
let restride_dense ctx img =
  let l = img.layout in
  let vs = vec_size ctx in
  if l.si = 1 && l.sj = 1 && l.gh = l.height && l.gw = l.width then img
  else begin
    let g = grid l in
    let per_ct_stage exprs ~src_pos ~dst_pos =
      Array.mapi
        (fun t x ->
          let groups : (int, float array) Hashtbl.t = Hashtbl.create 16 in
          let ch_lo = t * l.cpc and ch_hi = min l.channels ((t + 1) * l.cpc) - 1 in
          for c = ch_lo to ch_hi do
            let lc = c mod l.cpc in
            for i = 0 to l.height - 1 do
              for j = 0 to l.width - 1 do
                let rot = src_pos lc i j - dst_pos lc i j in
                let mask =
                  match Hashtbl.find_opt groups rot with
                  | Some m -> m
                  | None ->
                      let m = Array.make vs 0.0 in
                      Hashtbl.replace groups rot m;
                      m
                in
                mask.(dst_pos lc i j) <- 1.0
              done
            done
          done;
          if Hashtbl.length groups = 1 && Hashtbl.mem groups 0 then x
          else begin
            let terms =
              Hashtbl.fold
                (fun rot mask acc ->
                  let rotated = rotate_shared ctx x rot in
                  B.mul rotated (B.const_vector ctx.builder ~scale:ctx.mask_scale mask) :: acc)
                groups []
            in
            match terms with [] -> x | terms -> Eva_core.Simd.balanced_sum ~add:B.add terms
          end)
        exprs
    in
    let pos0 lc i j = (lc * g) + (i * l.si * l.gw) + (j * l.sj) in
    let pos_a lc i j = (lc * g) + (i * l.si * l.gw) + j in
    let pos_b lc i j = (lc * g) + (i * l.width) + j in
    let xa = per_ct_stage img.exprs ~src_pos:pos0 ~dst_pos:pos_a in
    let xb = per_ct_stage xa ~src_pos:pos_a ~dst_pos:pos_b in
    (* Stage C: move channel blocks to the new dense layout. *)
    let out_layout = dense ~vs ~channels:l.channels ~height:l.height ~width:l.width in
    let gp = grid out_layout in
    let groups = Groups.create vs in
    for c = 0 to l.channels - 1 do
      let src_base = (c mod l.cpc) * g and dst_base = (c mod out_layout.cpc) * gp in
      let rot = src_base - dst_base in
      let mask = Groups.mask groups ~src_ct:(ct_of l c) ~dst_ct:(ct_of out_layout c) ~rot in
      for i = 0 to l.height - 1 do
        for j = 0 to l.width - 1 do
          mask.(dst_base + (i * l.width) + j) <- 1.0
        done
      done
    done;
    let exprs = Groups.emit groups ctx ~scale:ctx.mask_scale xb ~n_dst:(num_cts out_layout) in
    { exprs; layout = out_layout }
  end

let global_avg_pool ctx img =
  let pooled = pool_general ctx img ~kh:img.layout.height ~kw:img.layout.width in
  restride_dense ctx pooled

(* BSGS diagonal matrix-vector product on one ciphertext: y = W x with x
   of length m in the first slots, W of shape f x m. Every ciphertext in
   an EVA program is periodic in vec_size (inputs are replicated at
   encryption and all operations preserve the period), so the diagonals
   wrap at m' = vec_size directly — no masking or re-tiling multiply is
   needed; zero diagonal columns absorb any garbage beyond the data. *)
let bsgs_matvec ctx x ~w ~m ~f =
  let m' = vec_size ctx in
  if m > m' || f > m' then invalid_arg "Kernels.bsgs_matvec: operands exceed the vector";
  let n1, n2 = Eva_core.Simd.bsgs_split m' in
  let w' i j = if i < f && j < m then w i j else 0.0 in
  (* The giant-step rotation moves slot s of the inner sum to slot
     s - shift, so the diagonal is pre-rotated right by shift. *)
  let diag d shift =
    Array.init m' (fun s ->
        let i = (((s - shift) mod m') + m') mod m' in
        w' i ((i + d) mod m'))
  in
  (* Baby steps: n1 rotations of the one input ciphertext — the hoist
     group the executor decomposes once. *)
  let baby = Array.init n1 (fun j -> rotate_shared ctx x j) in
  let giant =
    List.init n2 (fun gstep ->
        let shift = gstep * n1 in
        let terms =
          List.init n1 (fun j ->
              let dg = diag (shift + j) shift in
              if Array.for_all (fun v -> v = 0.0) dg then None
              else Some (B.mul baby.(j) (B.const_vector ctx.builder ~scale:ctx.weight_scale dg)))
        in
        match List.filter_map Fun.id terms with
        | [] -> None
        | terms -> Some (rotate_shared ctx (Eva_core.Simd.balanced_sum ~add:B.add terms) shift))
  in
  match List.filter_map Fun.id giant with
  | [] -> None
  | t :: rest -> Some (List.fold_left B.add t rest)

let fully_connected ctx img ~weights =
  let img = restride_dense ctx img in
  let l = img.layout in
  let m_total = l.channels * l.height * l.width in
  let f = Array.length weights in
  Array.iter (fun row -> if Array.length row <> m_total then invalid_arg "Kernels.fully_connected: shape") weights;
  let vs = vec_size ctx in
  if f > vs then invalid_arg "Kernels.fully_connected: too many outputs";
  let per_ct = l.cpc * grid l in
  let parts =
    List.init (num_cts l) (fun t ->
        let base = t * per_ct in
        let m_t = min per_ct (m_total - base) in
        bsgs_matvec ctx img.exprs.(t) ~w:(fun i j -> weights.(i).(base + j)) ~m:m_t ~f)
  in
  let expr =
    match List.filter_map Fun.id parts with
    | [] -> invalid_arg "Kernels.fully_connected: zero weight matrix"
    | parts -> Eva_core.Simd.balanced_sum ~add:B.add parts
  in
  finish_kernel ctx { exprs = [| expr |]; layout = dense ~vs ~channels:f ~height:1 ~width:1 }

(* k-term encrypted dot product <xs, ys>: pairwise ciphertext products
   summed in a balanced tree.  The reduction is pure ADDs, so lazy
   relinearization carries the size-3 products to the root and pays one
   key switch for the whole tree — versus one per term under the eager
   rule.  This is the kernel the relin benchmark A/Bs. *)
let dot xs ys =
  let k = Array.length xs in
  if k = 0 || Array.length ys <> k then invalid_arg "Kernels.dot: term-count mismatch";
  Eva_core.Simd.balanced_sum ~add:B.add (List.init k (fun i -> B.mul xs.(i) ys.(i)))

(* 'same'-padded stride-1 convolution with ENCRYPTED weights:
   [weights.(o).(c).(di).(dj)] is a ciphertext holding the scalar weight
   replicated across slots (private-model inference, where conv2d's
   plaintext masks would leak the filter).  Each tap contributes
   (rotate(x) . valid-mask) x w — the mask both zeroes out-of-bounds
   positions and suppresses cross-channel garbage, and the weight
   multiply is cipher x cipher.  Accumulation per output ciphertext is a
   balanced tree: lazy relinearization pays one key switch per output
   ciphertext instead of one per tap. *)
let conv2d_cipher ctx img ~weights =
  let l = img.layout in
  let out_channels = Array.length weights in
  let in_channels = Array.length weights.(0) in
  if in_channels <> l.channels then invalid_arg "Kernels.conv2d_cipher: channel mismatch";
  let k = Array.length weights.(0).(0) in
  let pad = k / 2 in
  let out_layout = { l with channels = out_channels } in
  let g = grid l in
  let vs = vec_size ctx in
  let per_dst = Array.make (num_cts out_layout) [] in
  for o = 0 to out_channels - 1 do
    for c = 0 to in_channels - 1 do
      for di = 0 to k - 1 do
        for dj = 0 to k - 1 do
          let rot =
            (((c mod l.cpc) - (o mod out_layout.cpc)) * g)
            + ((di - pad) * l.si * l.gw)
            + ((dj - pad) * l.sj)
          in
          let mask = Array.make vs 0.0 in
          let any = ref false in
          for i = 0 to l.height - 1 do
            for j = 0 to l.width - 1 do
              let src_i = i + di - pad and src_j = j + dj - pad in
              if src_i >= 0 && src_i < l.height && src_j >= 0 && src_j < l.width then begin
                mask.(slot out_layout o i j) <- 1.0;
                any := true
              end
            done
          done;
          if !any then begin
            let rotated = rotate_shared ctx img.exprs.(ct_of l c) rot in
            let masked = B.mul rotated (B.const_vector ctx.builder ~scale:ctx.mask_scale mask) in
            let dst = ct_of out_layout o in
            per_dst.(dst) <- B.mul masked weights.(o).(c).(di).(dj) :: per_dst.(dst)
          end
        done
      done
    done
  done;
  let exprs =
    Array.map
      (function
        | [] -> invalid_arg "Kernels.conv2d_cipher: output channel with no contributions"
        | terms -> Eva_core.Simd.balanced_sum ~add:B.add terms)
      per_dst
  in
  finish_kernel ctx { exprs; layout = out_layout }

let square ctx img = finish_kernel ctx { img with exprs = Array.map (fun e -> B.mul e e) img.exprs }

let poly_act ctx coeffs img =
  finish_kernel ctx
    { img with exprs = Array.map (fun e -> B.polynomial ctx.builder ~scale:ctx.weight_scale coeffs e) img.exprs }
