//! Request dispatch: maps parsed requests onto the serving state.
//!
//! The router is deliberately transport-free — `handle` takes a parsed
//! [`Request`], returns a [`Response`] and counts the request under the
//! [`Route`] that answered it — so the TCP worker pool, the integration
//! tests and the in-process serving bench all exercise the *same* code
//! path. `BENCH_serving.json` therefore measures the real cost of
//! dispatch, lookup and serialization, not a bench-only shortcut.

use crate::campaigns::{CampaignRunner, CampaignSpec, MAX_CAMPAIGN_BOARDS, MAX_CAMPAIGN_WORKERS};
use crate::http::{path, Method, Request, Response};
use crate::metrics::{Route, ServerMetrics};
use crate::state::ControlState;
use std::sync::Arc;
use std::time::Instant;

/// The control plane's request dispatcher.
#[derive(Debug)]
pub struct Router {
    state: Arc<ControlState>,
    runner: Arc<CampaignRunner>,
    metrics: Arc<ServerMetrics>,
}

impl Router {
    /// Wires a router over shared serving state.
    pub fn new(
        state: Arc<ControlState>,
        runner: Arc<CampaignRunner>,
        metrics: Arc<ServerMetrics>,
    ) -> Self {
        Router {
            state,
            runner,
            metrics,
        }
    }

    /// The serving state this router answers from.
    pub fn state(&self) -> &Arc<ControlState> {
        &self.state
    }

    /// The campaign runner behind `POST /v1/campaigns`.
    pub fn runner(&self) -> &Arc<CampaignRunner> {
        &self.runner
    }

    /// The server metrics this router reports into.
    pub fn metrics(&self) -> &Arc<ServerMetrics> {
        &self.metrics
    }

    /// Dispatches one request on its [`Route`] and records it in the
    /// server metrics under that route. Infallible: every outcome,
    /// including unknown routes and bad payloads, is a well-formed
    /// response.
    pub fn handle(&self, request: &Request) -> Response {
        let started = Instant::now();
        let route = Route::of(&request.method, &request.target);
        let path = path(&request.target);
        let response = match route {
            Route::SafePoint => self.safe_point(request, &path["/v1/safe-point/".len()..]),
            Route::CampaignSubmit => self.submit_campaign(&request.body),
            Route::CampaignStatus => match path.strip_prefix("/v1/campaigns/") {
                Some(id) => self.campaign_status(id),
                None => Response::json(200, serde::json::to_string(&self.runner.records())),
            },
            Route::Status => {
                Response::json(200, serde::json::to_string(self.state.status().as_ref()))
            }
            Route::Dispatch => {
                Response::json(200, serde::json::to_string(self.state.dispatch().as_ref()))
            }
            Route::Metrics => {
                Response::text(200, self.metrics.exposition(&self.state.base_metrics()))
            }
            Route::Other => match request.method {
                Method::Other(_) => Response::error(405, "method not allowed"),
                Method::Get | Method::Post => Response::error(404, "no such route"),
            },
        };
        self.metrics
            .observe(route, response.status, started.elapsed().as_secs_f64());
        response
    }

    fn safe_point(&self, request: &Request, board: &str) -> Response {
        let Ok(board) = board.parse::<u32>() else {
            return Response::error(400, "board id must be a u32");
        };
        // One Arc clone, then pure immutable reads — the hot path.
        let snapshot = self.state.snapshot();
        match snapshot.lookup(board) {
            Some(view) => {
                // The tag is the snapshot version: every epoch roll swaps
                // the whole snapshot and bumps it, so a match guarantees
                // the client's cached body is still the served one.
                let tag = format!("\"sp-{}\"", snapshot.version);
                if request.header("if-none-match") == Some(tag.as_str()) {
                    return Response::not_modified().with_etag(tag);
                }
                Response::json(200, serde::json::to_string(&view)).with_etag(tag)
            }
            None => Response::error(404, "board has no safe point"),
        }
    }

    fn submit_campaign(&self, body: &[u8]) -> Response {
        let Ok(text) = std::str::from_utf8(body) else {
            return Response::error(400, "body must be UTF-8 JSON");
        };
        let spec: CampaignSpec = match serde::json::from_str(text) {
            Ok(spec) => spec,
            Err(_) => return Response::error(400, "body must be a campaign spec"),
        };
        if spec.boards == 0 {
            return Response::error(400, "campaign needs at least one board");
        }
        if spec.boards > MAX_CAMPAIGN_BOARDS {
            return Response::error(
                400,
                &format!("campaign may have at most {MAX_CAMPAIGN_BOARDS} boards"),
            );
        }
        if spec.workers > MAX_CAMPAIGN_WORKERS {
            return Response::error(
                400,
                &format!("campaign may use at most {MAX_CAMPAIGN_WORKERS} workers"),
            );
        }
        match self.runner.submit(spec) {
            Some(id) => Response::json(202, format!("{{\"id\":{id}}}")),
            None => Response::error(503, "server is draining").closing(),
        }
    }

    fn campaign_status(&self, id: &str) -> Response {
        let Ok(id) = id.parse::<u64>() else {
            return Response::error(400, "campaign id must be a u64");
        };
        match self.runner.record(id) {
            Some(record) => Response::json(200, serde::json::to_string(&record)),
            None => Response::error(404, "no such campaign"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaigns::CampaignState;

    fn get(target: &str) -> Request {
        Request {
            method: Method::Get,
            target: target.to_owned(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    fn post(target: &str, body: &str) -> Request {
        Request {
            method: Method::Post,
            target: target.to_owned(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn router() -> Router {
        let state = Arc::new(ControlState::new());
        let runner = CampaignRunner::in_memory(state.clone());
        Router::new(state, runner, Arc::new(ServerMetrics::new()))
    }

    fn wait_completed(router: &Router, id: u64) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while router.runner.record(id).unwrap().state != CampaignState::Completed {
            assert!(std::time::Instant::now() < deadline, "campaign stuck");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }

    #[test]
    fn the_route_table_classifies_method_and_target() {
        let put = Method::Other("PUT".to_owned());
        for (method, target, route) in [
            (&Method::Get, "/v1/safe-point/3", Route::SafePoint),
            (&Method::Get, "/v1/safe-point/3?fresh=1", Route::SafePoint),
            (&Method::Post, "/v1/campaigns", Route::CampaignSubmit),
            (&Method::Get, "/v1/campaigns", Route::CampaignStatus),
            (&Method::Get, "/v1/campaigns/0", Route::CampaignStatus),
            (&Method::Get, "/v1/status", Route::Status),
            (&Method::Get, "/v1/dispatch", Route::Dispatch),
            (&Method::Get, "/metrics", Route::Metrics),
            (&Method::Get, "/teapot", Route::Other),
            (&Method::Post, "/v1/status", Route::Other),
            (&Method::Post, "/v1/safe-point/1", Route::Other),
            (&Method::Post, "/v1/campaigns/0", Route::Other),
            (&put, "/v1/status", Route::Other),
        ] {
            assert_eq!(Route::of(method, target), route, "{method} {target}");
        }
    }

    #[test]
    fn metrics_label_each_request_with_the_route_that_answered() {
        let router = router();
        let put = Request {
            method: Method::Other("PUT".to_owned()),
            ..get("/v1/status")
        };
        assert_eq!(router.handle(&get("/v1/campaigns")).status, 200);
        assert_eq!(router.handle(&post("/v1/safe-point/1", "")).status, 404);
        assert_eq!(router.handle(&post("/v1/status", "")).status, 404);
        assert_eq!(router.handle(&put).status, 405);
        let metrics = router.handle(&get("/metrics"));
        let text = std::str::from_utf8(&metrics.body).unwrap();
        let series = |route: &str, class: &str| {
            format!("control_plane_requests_total{{route=\"{route}\",status=\"{class}\"}}")
        };
        for (route, class, count) in [("campaign_status", "2xx", 1), ("other", "4xx", 3)] {
            let line = format!("{} {count}", series(route, class));
            assert!(text.lines().any(|l| l == line), "no `{line}` in:\n{text}");
        }
        for (route, class) in [
            ("campaign_submit", "2xx"),
            ("safe_point", "4xx"),
            ("status", "4xx"),
        ] {
            let series = series(route, class);
            assert!(!text.contains(&series), "`{series}` counted in:\n{text}");
        }
        router.runner.drain();
    }

    fn get_with(target: &str, header: (&str, &str)) -> Request {
        Request {
            method: Method::Get,
            target: target.to_owned(),
            headers: vec![(header.0.to_owned(), header.1.to_owned())],
            body: Vec::new(),
        }
    }

    fn one_board_store(
        board: u32,
        attempt: u32,
        rail: u32,
    ) -> guardband_core::safepoint::SafePointStore {
        use guardband_core::safepoint::{BoardSafePoint, SafePointPolicy, SafePointStore};
        use power_model::units::Millivolts;
        let policy = SafePointPolicy::dsn18();
        let mut store = SafePointStore::new();
        store.insert(BoardSafePoint {
            board,
            attempt,
            bin: xgene_sim::sigma::SigmaBin::Ttt,
            core_vmin_mv: vec![Some(rail - 5); 8],
            rail_vmin_mv: Some(rail),
            operating_point: Some(policy.derive_from_measured(Millivolts::new(rail), policy.trefp)),
            bank_safe_trefp_ms: vec![2283.0; 8],
            savings_fraction: 0.2,
            savings_watts: 6.0,
        });
        store
    }

    #[test]
    fn etags_revalidate_and_rollover_invalidates_the_tag() {
        let router = router();
        router.state.roll_epoch(0, &one_board_store(3, 0, 905));

        // First fetch: full body plus a tag to revalidate with.
        let fresh = router.handle(&get("/v1/safe-point/3"));
        assert_eq!(fresh.status, 200);
        let tag = fresh.etag.clone().expect("safe points carry an etag");
        assert!(!fresh.body.is_empty());

        // Revalidation with the current tag: an empty 304.
        let revalidated = router.handle(&get_with("/v1/safe-point/3", ("if-none-match", &tag)));
        assert_eq!(revalidated.status, 304);
        assert!(revalidated.body.is_empty());
        assert_eq!(revalidated.etag.as_deref(), Some(tag.as_str()));

        // A stranger's tag does not match.
        let mismatched = router.handle(&get_with(
            "/v1/safe-point/3",
            ("if-none-match", "\"sp-999\""),
        ));
        assert_eq!(mismatched.status, 200);

        // An epoch roll swaps the snapshot: the old tag must stop matching
        // even though the client is asking about the same board.
        router.state.roll_epoch(12, &one_board_store(3, 12, 925));
        let rolled = router.handle(&get_with("/v1/safe-point/3", ("if-none-match", &tag)));
        assert_eq!(rolled.status, 200, "rollover must invalidate the tag");
        let new_tag = rolled.etag.expect("rolled response carries a fresh tag");
        assert_ne!(new_tag, tag);
        assert!(std::str::from_utf8(&rolled.body)
            .unwrap()
            .contains("\"rail_vmin_mv\":925"));
        router.runner.drain();
    }

    #[test]
    fn dispatch_endpoint_serves_the_published_summary() {
        let router = router();
        // Before any dispatcher run: the disabled default.
        let empty = router.handle(&get("/v1/dispatch"));
        assert_eq!(empty.status, 200);
        assert!(std::str::from_utf8(&empty.body)
            .unwrap()
            .contains("\"enabled\":false"));

        router.state.set_dispatch(crate::state::DispatchStatus {
            enabled: true,
            requests_routed: 120,
            requests_rejected: 0,
            qos_violations: 1,
            reroutes: 4,
            watts_per_qps: 0.51,
            boards: vec![crate::state::DispatchBoardStatus {
                board: 0,
                mode: "exploited".to_owned(),
                capacity_qps: 200,
                busy_watts: 42.0,
                served: 120,
                margin_decay_mv: 3,
            }],
        });
        let body = router.handle(&get("/v1/dispatch"));
        assert_eq!(body.status, 200);
        let text = std::str::from_utf8(&body.body).unwrap();
        assert!(text.contains("\"requests_routed\":120"));
        assert!(text.contains("\"margin_decay_mv\":3"));
        router.runner.drain();
    }

    #[test]
    fn full_lifecycle_through_the_router() {
        let router = router();
        // Nothing served yet.
        assert_eq!(router.handle(&get("/v1/safe-point/0")).status, 404);

        // Submit a campaign and poll it to completion.
        let accepted = router.handle(&post("/v1/campaigns", r#"{"boards":4,"seed":11}"#));
        assert_eq!(accepted.status, 202);
        assert_eq!(accepted.body, b"{\"id\":0}");
        wait_completed(&router, 0);

        let status = router.handle(&get("/v1/campaigns/0"));
        assert_eq!(status.status, 200);
        let record: crate::campaigns::CampaignRecord =
            serde::json::from_str(std::str::from_utf8(&status.body).unwrap()).unwrap();
        assert_eq!(record.state, CampaignState::Completed);
        assert_eq!(record.boards_characterized, 4);

        // The results are served.
        let point = router.handle(&get("/v1/safe-point/0"));
        assert_eq!(point.status, 200);
        let view: crate::state::SafePointView =
            serde::json::from_str(std::str::from_utf8(&point.body).unwrap()).unwrap();
        assert_eq!(view.board, 0);
        assert_eq!(view.epoch, 0);

        // Status and metrics reflect the campaign.
        let status = router.handle(&get("/v1/status"));
        assert!(std::str::from_utf8(&status.body)
            .unwrap()
            .contains("\"boards_served\":4"));
        let metrics = router.handle(&get("/metrics"));
        assert!(std::str::from_utf8(&metrics.body)
            .unwrap()
            .contains("control_plane_campaigns_completed_total 1"));
        router.runner.drain();
    }

    #[test]
    fn bad_inputs_answer_4xx() {
        let router = router();
        assert_eq!(router.handle(&get("/v1/safe-point/xyz")).status, 400);
        assert_eq!(router.handle(&get("/v1/campaigns/-1")).status, 400);
        assert_eq!(router.handle(&get("/v1/campaigns/7")).status, 404);
        assert_eq!(
            router.handle(&post("/v1/campaigns", "not json")).status,
            400
        );
        assert_eq!(
            router
                .handle(&post("/v1/campaigns", r#"{"boards":0,"seed":1}"#))
                .status,
            400
        );
        let over_boards = r#"{"boards":4294967295,"seed":1,"workers":2}"#;
        assert_eq!(
            router.handle(&post("/v1/campaigns", over_boards)).status,
            400
        );
        let over_workers = r#"{"boards":16,"seed":1,"workers":100000}"#;
        assert_eq!(
            router.handle(&post("/v1/campaigns", over_workers)).status,
            400
        );
        let at_limits = r#"{"boards":16,"seed":1,"workers":2}"#;
        assert_eq!(router.handle(&post("/v1/campaigns", at_limits)).status, 202);
        assert_eq!(router.handle(&get("/nope")).status, 404);
        let put = Request {
            method: Method::Other("PUT".to_owned()),
            target: "/v1/status".to_owned(),
            headers: Vec::new(),
            body: Vec::new(),
        };
        assert_eq!(router.handle(&put).status, 405);
        router.runner.drain();
    }

    #[test]
    fn draining_router_answers_503_for_submissions() {
        let router = router();
        router.runner.drain();
        let resp = router.handle(&post("/v1/campaigns", r#"{"boards":2,"seed":5}"#));
        assert_eq!(resp.status, 503);
        assert!(resp.close);
    }
}
