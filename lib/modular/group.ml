open Dmw_bigint

type t = {
  p : Bigint.t;
  q : Bigint.t;
  z1 : Bigint.t;
  z2 : Bigint.t;
  mont : Montgomery.ctx option;
}
type elt = Bigint.t

let one = Bigint.one
let equal = Bigint.equal
let bits g = Bigint.num_bits g.p
let mod_q g e = Bigint.erem e g.q
let mul g a b = Zmod.mul g.p a b
let inv g a = Zmod.inv g.p a
let div g a b = Zmod.div g.p a b
let pow_in p mont b e =
  match mont with
  | Some ctx -> Montgomery.pow ctx b e
  | None -> Zmod.pow p b e

let modexps = Dmw_obs.Metrics.counter "dmw_modexp_total"

let pow g b e =
  Dmw_obs.Metrics.incr modexps;
  pow_in g.p g.mont b (mod_q g e)
let commit g a b = mul g (pow g g.z1 a) (pow g g.z2 b)

let random_exponent g rng =
  Prng.in_range rng ~lo:Bigint.one ~hi:(Bigint.sub g.q Bigint.one)

let element_bytes g = Bigint.byte_size g.p
let exponent_bytes g = Bigint.byte_size g.q

let create ~p ~q ~z1 ~z2 =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let check cond msg = if cond then Ok () else Error msg in
  let* () =
    check
      (Bigint.equal p (Bigint.add (Bigint.shift_left q 1) Bigint.one))
      "p <> 2q + 1"
  in
  let in_range z =
    Bigint.compare z Bigint.two >= 0
    && Bigint.compare z (Bigint.sub p Bigint.two) <= 0
  in
  let* () = check (in_range z1) "z1 out of range" in
  let* () = check (in_range z2) "z2 out of range" in
  let* () = check (not (Bigint.equal z1 z2)) "z1 = z2" in
  let mont = Montgomery.for_modulus p in
  let order_q z = Bigint.equal (pow_in p mont z q) Bigint.one in
  let* () = check (order_q z1) "z1 does not have order q" in
  let* () = check (order_q z2) "z2 does not have order q" in
  Ok { p; q; z1; z2; mont }

let validate_prime rng g = Primality.is_prime rng g.p && Primality.is_prime rng g.q

let generate rng ~bits =
  let p, q = Primegen.safe_prime rng ~bits in
  (* Squaring a random element yields a quadratic residue, hence an
     element of the order-q subgroup; reject the identity. *)
  let rec gen_generator () =
    let h = Prng.in_range rng ~lo:Bigint.two ~hi:(Bigint.sub p Bigint.two) in
    let z = Zmod.sqr p h in
    if Bigint.equal z Bigint.one then gen_generator () else z
  in
  let z1 = gen_generator () in
  let rec gen_distinct () =
    let z = gen_generator () in
    if Bigint.equal z z1 then gen_distinct () else z
  in
  let z2 = gen_distinct () in
  match create ~p ~q ~z1 ~z2 with
  | Ok g -> g
  (* lint: allow partial: generate just constructed p, q and the
     generators to satisfy create's checks; a failure here is a bug in
     this function, not an input error. *)
  | Error msg -> failwith ("Group.generate: internal error: " ^ msg)

(* Pre-generated with [generate (Prng.create ~seed:0xD3A) ~bits] — see
   test/test_modular.ml, which re-derives the small sizes and
   re-validates primality and generator orders for all of them. *)
let standard_table : (int * (string * string * string * string)) list =
  [ (16, ("54287", "27143", "25290", "32662"));
    (32, ("4154383379", "2077191689", "3985151044", "884754885"));
    (64,
     ("15989947868118331259", "7994973934059165629", "5610197368940967498",
      "6720343354764326858"));
    (96,
     ("68676303163490069899893050987", "34338151581745034949946525493",
      "38118298796599282471177328166", "3797011853070180814168460869"));
    (128,
     ("294962476097371191444418233565023376883",
      "147481238048685595722209116782511688441",
      "196448521885952544936858523969094098995",
      "230305687819621060468946763527860609280"));
    (256,
     ("84578443907134543930937046518870199916619384373809667590248323276791701242539",
      "42289221953567271965468523259435099958309692186904833795124161638395850621269",
      "21524178649118172581987476195774544995171134826304722282997999955527403673805",
      "26055187895764041730442884990110108338372963920893970640255734534741873303336"));
    (512,
     ("11686436022950850166279047122070758798452492860789484489443134524998934869819969013344599499563516922911064900008917312263412900728214771593146007945830027",
      "5843218011475425083139523561035379399226246430394742244721567262499467434909984506672299749781758461455532450004458656131706450364107385796573003972915013",
      "4400601188820682905728460209747519169492091404020006244950234942434142750436617622616896366539887929554435414505026179164336521031125308408996889888641248",
      "1809093522411016224547489733364948074222188974053153071664518776604234674404719879999533548579621684053066153427440547632152881132881960034720061829978451"));
    (1024,
     ("155800548862451892455424787501209110863330361341318712131156845383784644855542827583635253962112747177103514193214724027993000169053284772672651927793491847346566708166303864745520198498161229551561872211943104566530350653054220514113086588541672910423457533543422172334221067516016953235854567117165155763483",
      "77900274431225946227712393750604555431665180670659356065578422691892322427771413791817626981056373588551757096607362013996500084526642386336325963896745923673283354083151932372760099249080614775780936105971552283265175326527110257056543294270836455211728766771711086167110533758008476617927283558582577881741",
      "76416992750277668222484377880501601272660541471004447812667105420852544605608806033430260245954185355087553468006000916726541446937749795931257421660983699188561107381025420051235334426730548147320725152646183306306758983446454651584613547833664799655848559559296819857393923092753238940508941308188378883722",
      "32911862211878020417161891101258089421686267467111394562513324532848007791256213591467258354480914842597762553896055355786203838864465835988414942357628327155899318750336487755162646859409549336303503228341784700015437218987415031651540509417415337197637854179933955165999534992236644301601829089144885590548")) ]

let standard_sizes = List.map fst standard_table
let standard_cache : (int, t) Hashtbl.t = Hashtbl.create 8
let standard_lock = Mutex.create ()

let standard ~bits =
  Mutex.lock standard_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock standard_lock) @@ fun () ->
  match Hashtbl.find_opt standard_cache bits with
  | Some g -> g
  | None ->
      (match List.assoc_opt bits standard_table with
      | None -> invalid_arg "Group.standard: unsupported size"
      | Some (p, q, z1, z2) ->
          let g =
            match
              create ~p:(Bigint.of_string p) ~q:(Bigint.of_string q)
                ~z1:(Bigint.of_string z1) ~z2:(Bigint.of_string z2)
            with
            | Ok g -> g
            (* lint: allow partial: the baked-in constants are
               re-validated by test/test_modular.ml; failing here means
               the source text itself was corrupted. *)
            | Error msg -> failwith ("Group.standard: corrupt constant: " ^ msg)
          in
          Hashtbl.add standard_cache bits g;
          g)

let pp fmt g =
  Format.fprintf fmt "@[<v>Schnorr group (%d bits)@ p  = %a@ q  = %a@ z1 = %a@ z2 = %a@]"
    (bits g) Bigint.pp g.p Bigint.pp g.q Bigint.pp g.z1 Bigint.pp g.z2
