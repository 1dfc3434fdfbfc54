module B = Eva_core.Builder
module Ir = Eva_core.Ir

type layer =
  | Conv of { out_channels : int; kernel : int; stride : int }
  | Avg_pool of int
  | Global_avg_pool
  | Restride
  | Fc of int
  | Square
  | Poly of float list

type t = {
  net_name : string;
  input_channels : int;
  input_height : int;
  input_width : int;
  layers : layer list;
}

type layer_weights = Lw_conv of float array array array array | Lw_fc of float array array | Lw_none
type weights = layer_weights array

(* Walk the layer list tracking logical dimensions. *)
let fold_shapes net f acc =
  let acc, _ =
    List.fold_left
      (fun (acc, (c, h, w)) layer ->
        let out =
          match layer with
          | Conv { out_channels; stride; _ } -> (out_channels, (h + stride - 1) / stride, (w + stride - 1) / stride)
          | Avg_pool k -> (c, h / k, w / k)
          | Global_avg_pool -> (c, 1, 1)
          | Restride | Square | Poly _ -> (c, h, w)
          | Fc n -> (n, 1, 1)
        in
        (f acc layer (c, h, w) out, out))
      (acc, (net.input_channels, net.input_height, net.input_width))
      net.layers
  in
  acc

(* The vector must fit the largest physical grid. Pools and strided convs
   keep the grid of the preceding restride point; a Restride (or global
   pool, or FC) shrinks it to the current logical dimensions. *)
let vec_size net =
  let need = ref (max 2 (net.input_height * net.input_width)) in
  let _ =
    List.fold_left
      (fun (c, h, w, grid) layer ->
        let bump k = if k > !need then need := k in
        match layer with
        | Conv { out_channels; stride; _ } -> (out_channels, (h + stride - 1) / stride, (w + stride - 1) / stride, grid)
        | Avg_pool k -> (c, h / k, w / k, grid)
        | Restride ->
            bump (h * w);
            (c, h, w, h * w)
        | Global_avg_pool -> (c, 1, 1, 1)
        | Fc n ->
            bump n;
            (n, 1, 1, 1)
        | Square | Poly _ -> (c, h, w, grid))
      (net.input_channels, net.input_height, net.input_width, net.input_height * net.input_width)
      net.layers
  in
  Eva_core.Simd.next_pow2 !need

let random_weights net ~seed =
  let st = Random.State.make [| seed; 17 |] in
  let uniform a = (Random.State.float st 2.0 -. 1.0) *. a in
  Array.of_list
    (fold_shapes net
       (fun acc layer (c, h, w) _ ->
         let lw =
           match layer with
           | Conv { out_channels; kernel; _ } ->
               let a = Float.sqrt (3.0 /. float_of_int (kernel * kernel * c)) in
               Lw_conv
                 (Array.init out_channels (fun _ ->
                      Array.init c (fun _ -> Array.init kernel (fun _ -> Array.init kernel (fun _ -> uniform a)))))
           | Fc n ->
               let m = c * h * w in
               let a = Float.sqrt (3.0 /. float_of_int m) in
               Lw_fc (Array.init n (fun _ -> Array.init m (fun _ -> uniform a)))
           | _ -> Lw_none
         in
         lw :: acc)
       [])
  |> fun arr ->
  let k = Array.length arr in
  Array.init k (fun i -> arr.(k - 1 - i))

let infer_plain net w input =
  let x = ref (Tensor.of_array ~channels:net.input_channels ~height:net.input_height ~width:net.input_width input) in
  List.iteri
    (fun i layer ->
      x :=
        (match (layer, w.(i)) with
        | Conv { stride; _ }, Lw_conv cw -> Tensor.conv2d !x ~weights:cw ~stride
        | Avg_pool k, _ -> Tensor.avg_pool !x ~k
        | Global_avg_pool, _ -> Tensor.global_avg_pool !x
        | Restride, _ -> !x
        | Fc _, Lw_fc fw -> Tensor.fully_connected !x ~weights:fw
        | Square, _ -> Tensor.square !x
        | Poly coeffs, _ -> Tensor.poly coeffs !x
        | _ -> invalid_arg "Network.infer_plain: weight/layer mismatch"))
    net.layers;
  Tensor.to_array !x

type scales = { cipher : int; weight : int; output : int }

type lowered = {
  program : Ir.program;
  input_layout : Kernels.layout;
  output_layout : Kernels.layout;
  scales : scales;
}

let lower ~mode ~scales net w =
  let vs = vec_size net in
  let b = B.create ~name:net.net_name ~vec_size:vs () in
  let ctx = Kernels.make_ctx ~mode ~weight_scale:scales.weight ~cipher_scale:scales.cipher b in
  let img =
    Kernels.input_image ctx ~scale:scales.cipher ~name:"image" ~channels:net.input_channels
      ~height:net.input_height ~width:net.input_width
  in
  let input_layout = img.Kernels.layout in
  let out = ref img in
  List.iteri
    (fun i layer ->
      out :=
        (match (layer, w.(i)) with
        | Conv { stride; _ }, Lw_conv cw -> Kernels.conv2d ctx !out ~weights:cw ~stride
        | Avg_pool k, _ -> Kernels.avg_pool ctx !out ~k
        | Global_avg_pool, _ -> Kernels.global_avg_pool ctx !out
        | Restride, _ -> Kernels.restride_dense ctx !out
        | Fc _, Lw_fc fw -> Kernels.fully_connected ctx !out ~weights:fw
        | Square, _ -> Kernels.square ctx !out
        | Poly coeffs, _ -> Kernels.poly_act ctx coeffs !out
        | _ -> invalid_arg "Network.lower: weight/layer mismatch"))
    net.layers;
  Kernels.output_image ctx ~scale:scales.output ~name:"scores" !out;
  { program = B.program b; input_layout; output_layout = !out.Kernels.layout; scales }

let bindings lowered input =
  Kernels.image_bindings ~vs:lowered.program.Ir.vec_size ~layout:lowered.input_layout ~name:"image" input

let read_outputs lowered named =
  Kernels.read_image lowered.output_layout (fun t -> List.assoc (Printf.sprintf "scores_%d" t) named)

let op_counts p =
  let count pred = List.length (List.filter (fun n -> pred n.Ir.op) p.Ir.all_nodes) in
  [
    ("multiply", count (function Ir.Multiply -> true | _ -> false));
    ("add/sub", count (function Ir.Add | Ir.Sub -> true | _ -> false));
    ("rotate", count (function Ir.Rotate_left _ | Ir.Rotate_right _ -> true | _ -> false));
    ("rescale", count (function Ir.Rescale _ -> true | _ -> false));
    ("modswitch", count (function Ir.Mod_switch -> true | _ -> false));
    ("relinearize", count (function Ir.Relinearize -> true | _ -> false));
    ("total", List.length p.Ir.all_nodes);
  ]
