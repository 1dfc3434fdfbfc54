type t = {
  slots : int;
  m : int; (* 2N = 4 * slots *)
  ksi : Complex.t array; (* ksi.(j) = exp(2 pi i j / m), j <= m *)
  rot_group : int array;
}

let slots t = t.slots

let make ~slots =
  if slots < 1 || slots land (slots - 1) <> 0 then invalid_arg "Embedding.make: slots must be a power of two";
  let m = 4 * slots in
  let ksi =
    Array.init (m + 1) (fun j ->
        let a = 2.0 *. Float.pi *. float_of_int j /. float_of_int m in
        { Complex.re = cos a; im = sin a })
  in
  let rot_group = Array.make slots 1 in
  for j = 1 to slots - 1 do
    rot_group.(j) <- rot_group.(j - 1) * 5 mod m
  done;
  { slots; m; ksi; rot_group }

let bit_reverse_permute vals =
  let n = Array.length vals in
  let j = ref 0 in
  for i = 1 to n - 1 do
    let bit = ref (n lsr 1) in
    while !j land !bit <> 0 do
      j := !j lxor !bit;
      bit := !bit lsr 1
    done;
    j := !j lor !bit;
    if i < !j then begin
      let tmp = vals.(i) in
      vals.(i) <- vals.(!j);
      vals.(!j) <- tmp
    end
  done

let embed_forward t vals =
  let n = t.slots in
  if Array.length vals <> n then invalid_arg "Embedding.embed_forward: wrong length";
  bit_reverse_permute vals;
  let len = ref 2 in
  while !len <= n do
    let lenh = !len / 2 and lenq = !len * 4 in
    let gap = t.m / lenq in
    let i = ref 0 in
    while !i < n do
      for j = 0 to lenh - 1 do
        let idx = t.rot_group.(j) mod lenq * gap in
        let u = vals.(!i + j) in
        let v = Complex.mul vals.(!i + j + lenh) t.ksi.(idx) in
        vals.(!i + j) <- Complex.add u v;
        vals.(!i + j + lenh) <- Complex.sub u v
      done;
      i := !i + !len
    done;
    len := !len * 2
  done

let embed_inverse t vals =
  let n = t.slots in
  if Array.length vals <> n then invalid_arg "Embedding.embed_inverse: wrong length";
  let len = ref n in
  while !len >= 2 do
    let lenh = !len / 2 and lenq = !len * 4 in
    let gap = t.m / lenq in
    let i = ref 0 in
    while !i < n do
      for j = 0 to lenh - 1 do
        let idx = (lenq - (t.rot_group.(j) mod lenq)) * gap in
        let u = Complex.add vals.(!i + j) vals.(!i + j + lenh) in
        let v = Complex.mul (Complex.sub vals.(!i + j) vals.(!i + j + lenh)) t.ksi.(idx) in
        vals.(!i + j) <- u;
        vals.(!i + j + lenh) <- v
      done;
      i := !i + !len
    done;
    len := !len / 2
  done;
  bit_reverse_permute vals;
  let inv_n = 1.0 /. float_of_int n in
  for i = 0 to n - 1 do
    vals.(i) <- { Complex.re = vals.(i).re *. inv_n; im = vals.(i).im *. inv_n }
  done
