open Dmw_bigint
open Dmw_modular
open Dmw_crypto

type outcome = {
  schedule : Dmw_mechanism.Schedule.t;
  first_prices : int array;
  second_prices : int array;
  payments : float array;
}

(* race: confined owner: built and consumed inside one direct-mode
   auction call; never escapes the constructing thread. *)
type auction_data = {
  dealers : Bid_commitments.dealer array;
  shares : Share.t array array;  (* shares.(dealer).(receiver) *)
  publics : Bid_commitments.public array;
}

let setup_auction rng (params : Params.t) ~task ~bids =
  let n = params.n in
  let dealers =
    Array.init n (fun i ->
        Bid_commitments.generate rng ~group:params.group ~sigma:params.sigma
          ~tau:(Params.tau_of_bid params bids.(i).(task)))
  in
  let shares =
    Array.map
      (fun d ->
        Array.init n (fun k ->
            Bid_commitments.share_for d ~alpha:params.alphas.(k)))
      dealers
  in
  { dealers; shares; publics = Array.map (fun d -> d.Bid_commitments.public) dealers }

let lambdas_of (params : Params.t) data =
  let q = params.group.Dmw_modular.Group.q in
  Array.init params.n (fun k ->
      let esum =
        Array.fold_left
          (fun acc row -> Zmod.add q acc row.(k).Share.e_at)
          Bigint.zero data.shares
      in
      Exponent_resolution.lambda params.group ~e_sum_at:esum)

let resolve_auction (params : Params.t) data =
  let lambdas = lambdas_of params data in
  let y_star =
    Resolution.require ~stage:"Direct: first price"
      (Resolution.first_price params ~lambdas)
  in
  let rows =
    List.map
      (fun k ->
        (k, Array.init params.n (fun i -> data.shares.(i).(k).Share.f_at)))
      (Params.disclosers params ~y_star)
  in
  let winner =
    Resolution.require ~stage:"Direct: winner identification"
      (Resolution.winner params ~y_star ~rows)
  in
  let lambdas_excl =
    Array.mapi
      (fun k lambda ->
        Dmw_modular.Group.div params.group lambda
          (Dmw_modular.Group.pow params.group
             params.group.Dmw_modular.Group.z1
             data.shares.(winner).(k).Share.e_at))
      lambdas
  in
  let y_star2 =
    Resolution.require ~stage:"Direct: second price"
      (Resolution.second_price params ~lambdas_excl)
  in
  (winner, y_star, y_star2)

let run ?(seed = 42) (params : Params.t) ~bids =
  let rng = Prng.create ~seed:(seed lxor 0xD12EC7) in
  let n = params.n and m = params.m in
  let winners = Array.make m 0 in
  let first_prices = Array.make m 0 in
  let second_prices = Array.make m 0 in
  let payments = Array.make n 0.0 in
  for j = 0 to m - 1 do
    let data = setup_auction rng params ~task:j ~bids in
    let w, y1, y2 = resolve_auction params data in
    winners.(j) <- w;
    first_prices.(j) <- y1;
    second_prices.(j) <- y2;
    payments.(w) <- payments.(w) +. float_of_int y2
  done;
  { schedule = Dmw_mechanism.Schedule.create ~agents:n ~assignment:winners;
    first_prices;
    second_prices;
    payments }

type cost = {
  multiplications : int;
  exponentiations : int;
  seconds : float;
}

let agent_cost ?(seed = 42) (params : Params.t) ~bids ~agent =
  let rng = Prng.create ~seed:(seed lxor 0xC057) in
  let n = params.n and m = params.m in
  let group = params.group in
  let q = group.Dmw_modular.Group.q in
  let muls = ref 0 and exps = ref 0 and elapsed = ref 0.0 in
  (* Run [f] timed and in its own scope; everything else runs untimed
     and uncounted. *)
  let counted f =
    let s = Sys.time () in
    let r, scope = Dmw_obs.Metrics.scoped f in
    elapsed := !elapsed +. (Sys.time () -. s);
    muls := !muls + Dmw_obs.Metrics.total ~scope "dmw_modmul_total";
    exps := !exps + Dmw_obs.Metrics.total ~scope "dmw_modexp_total";
    r
  in
  for j = 0 to m - 1 do
    (* Everyone else's secret work, uncounted. *)
    let others =
      Array.init n (fun i ->
          if i = agent then None
          else
            Some
              (Bid_commitments.generate rng ~group ~sigma:params.sigma
                 ~tau:(Params.tau_of_bid params bids.(i).(j))))
    in
    (* Phase II, counted: own dealer, own shares. *)
    let own =
      counted (fun () ->
          let d =
            Bid_commitments.generate rng ~group ~sigma:params.sigma
              ~tau:(Params.tau_of_bid params bids.(agent).(j))
          in
          ignore
            (Array.init n (fun k ->
                 Bid_commitments.share_for d ~alpha:params.alphas.(k)));
          d)
    in
    let dealers =
      Array.init n (fun i ->
          match others.(i) with Some d -> d | None -> own)
    in
    let shares_at k =
      Array.map (fun d -> Bid_commitments.share_for d ~alpha:params.alphas.(k)) dealers
    in
    let own_shares = shares_at agent in
    let publics = Array.map (fun d -> d.Bid_commitments.public) dealers in
    (* Phase III.1, counted: verify everyone's share bundle. *)
    counted (fun () ->
        Array.iteri
          (fun i share ->
            if i <> agent then begin
              match
                Bid_commitments.verify_share group publics.(i)
                  ~alpha:params.alphas.(agent) share
              with
              | Ok _ -> ()
              | Error _ ->
                  raise
                    (Resolution.Resolution_failure
                       "agent_cost: unexpected bad share")
            end)
          own_shares);
    (* III.2 for everyone (others uncounted). *)
    let lambda_psi_at k =
      let esum, hsum =
        Array.fold_left
          (fun (e, h) (s : Share.t) ->
            (Zmod.add q e s.Share.e_at, Zmod.add q h s.Share.h_at))
          (Bigint.zero, Bigint.zero) (shares_at k)
      in
      (Exponent_resolution.lambda group ~e_sum_at:esum,
       Exponent_resolution.psi group ~h_sum_at:hsum)
    in
    let pairs = Array.init n lambda_psi_at in
    ignore (counted (fun () -> lambda_psi_at agent));
    (* Counted: aggregate, verify each pair, resolve first price. *)
    let agg = counted (fun () -> Resolution.aggregate params ~publics) in
    counted (fun () ->
        Array.iteri
          (fun k (lambda, psi) ->
            if k <> agent then
              if not (Resolution.verify_lambda_psi params ~agg ~k ~lambda ~psi)
              then
                raise
                  (Resolution.Resolution_failure
                     "agent_cost: unexpected bad lambda"))
          pairs);
    let lambdas = Array.map fst pairs in
    let y_star =
      counted (fun () ->
          Resolution.require ~stage:"agent_cost: first price"
            (Resolution.first_price params ~lambdas))
    in
    (* Winner identification, counted: verify disclosures + degree tests. *)
    let disclosers = Params.disclosers params ~y_star in
    let rows =
      List.map
        (fun k -> (k, Array.map (fun (s : Share.t) -> s.Share.f_at) (shares_at k)))
        disclosers
    in
    let winner =
      counted (fun () ->
          List.iter
            (fun (k, f_row) ->
              if k <> agent then begin
                let _, psi = pairs.(k) in
                if not (Resolution.verify_disclosure params ~agg ~k ~f_row ~psi)
                then
                  raise
                    (Resolution.Resolution_failure
                       "agent_cost: unexpected bad disclosure")
              end)
            rows;
          Resolution.require ~stage:"agent_cost: winner identification"
            (Resolution.winner params ~y_star ~rows))
    in
    (* Second price, counted: aggregate exclusion, own pair, verify, resolve. *)
    let lambdas_excl =
      Array.mapi
        (fun k lambda ->
          let v =
            Dmw_modular.Group.pow group group.Dmw_modular.Group.z1
              (shares_at k).(winner).Share.e_at
          in
          Dmw_modular.Group.div group lambda v)
        lambdas
    in
    counted (fun () ->
        let agg_excl =
          Bid_commitments.aggregate_exclude group agg publics.(winner)
        in
        Array.iteri
          (fun k lambda ->
            if k <> agent then begin
              (* Ψ̄ recomputed as the honest agents do. *)
              let psi =
                Dmw_modular.Group.div group (snd pairs.(k))
                  (Dmw_modular.Group.pow group group.Dmw_modular.Group.z2
                     (shares_at k).(winner).Share.h_at)
              in
              if not
                   (Resolution.verify_lambda_psi_excl params ~agg_excl ~k
                      ~lambda ~psi)
              then
                raise
                  (Resolution.Resolution_failure
                     "agent_cost: unexpected bad excl lambda")
            end)
          lambdas_excl;
        ignore
          (Resolution.require ~stage:"agent_cost: second price"
             (Resolution.second_price params ~lambdas_excl)))
  done;
  { multiplications = !muls; exponentiations = !exps; seconds = !elapsed }

let minwork_cost ~bids =
  let t0 = Sys.time () in
  ignore (Dmw_mechanism.Minwork.run bids);
  { multiplications = 0; exponentiations = 0; seconds = Sys.time () -. t0 }
