"""Hand-written OpenAPI 3 description of the simulation service.

The document is maintained by hand (no schema-generation dependency)
and served verbatim at ``GET /v1/openapi.json``.  It is deliberately a
*contract*, not a mirror of the implementation: the end-to-end tests
assert that every route the server exposes appears here and vice
versa, so drift between the two is a test failure.
"""

from __future__ import annotations

from typing import Any, Dict

from repro._version import __version__

__all__ = ["API_VERSION", "openapi_document"]

#: Path prefix every route lives under; bump for breaking changes.
API_VERSION = "v1"

_RUN_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["digest", "status"],
    "properties": {
        "digest": {
            "type": "string",
            "pattern": "^[0-9a-f]{64}$",
            "description": "Content digest of the experiment spec (job key).",
        },
        "label": {"type": "string"},
        "status": {
            "type": "string",
            "enum": ["queued", "running", "done", "failed"],
        },
        "outcome": {
            "type": "string",
            "enum": ["completed", "cached", "failed"],
            "description": "Terminal outcome; present once status is done/failed.",
        },
        "created_unix": {"type": "number"},
        "finished_unix": {"type": "number"},
        "n_events": {"type": "integer"},
        "attempts": {"type": "integer"},
        "result": {
            "type": "object",
            "description": "Scalar result summary (stage means/variances, counts).",
        },
        "error": {"type": "string"},
    },
}

_SUBMIT_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "description": (
        "Either an inline spec document ({'spec': {...}}) or a named "
        "scenario set ({'scenario': 'smoke'}), optionally narrowed to "
        "one entry by label and rescaled by n_cycles."
    ),
    "properties": {
        "spec": {
            "type": "object",
            "description": (
                "Inline experiment spec: {'config': {...}, 'n_cycles': N, "
                "'warmup': N|null, 'label': '...'} -- the shape written by "
                "ExperimentSpec.to_jsonable and accepted by spec files."
            ),
        },
        "scenario": {
            "type": "string",
            "description": "Name of a scenario set from the scenario library.",
        },
        "label": {
            "type": "string",
            "description": "Submit only the scenario entry with this label.",
        },
        "n_cycles": {
            "type": "integer",
            "minimum": 1,
            "description": "Override every submitted spec's cycle budget.",
        },
    },
}

_SUBMIT_RESPONSE: Dict[str, Any] = {
    "type": "object",
    "required": ["runs", "count"],
    "properties": {
        "count": {"type": "integer"},
        "runs": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["digest", "status", "cached", "url"],
                "properties": {
                    "digest": {"type": "string"},
                    "label": {"type": "string"},
                    "status": {"type": "string"},
                    "cached": {
                        "type": "boolean",
                        "description": (
                            "True when no new execution was scheduled: the "
                            "result cache answered, or the digest deduped "
                            "onto an existing job."
                        ),
                    },
                    "url": {"type": "string"},
                },
            },
        },
    },
}

_ERROR_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["error"],
    "properties": {
        "error": {
            "type": "object",
            "required": ["code", "message"],
            "properties": {
                "code": {"type": "string"},
                "message": {"type": "string"},
            },
        }
    },
}


def _error_response(description: str) -> Dict[str, Any]:
    return {
        "description": description,
        "content": {
            "application/json": {"schema": {"$ref": "#/components/schemas/Error"}}
        },
    }


def openapi_document() -> Dict[str, Any]:
    """The complete OpenAPI 3.0 document served by the API."""
    return {
        "openapi": "3.0.3",
        "info": {
            "title": "repro simulation service",
            "version": __version__,
            "description": (
                "Digest-keyed execution of clocked multistage interconnection "
                "network experiments (Kruskal-Snir-Weiss waiting-time "
                "reproduction). Identical submissions deduplicate onto one "
                "job; finished results are served from the content-addressed "
                "result cache."
            ),
        },
        "paths": {
            f"/{API_VERSION}/healthz": {
                "get": {
                    "summary": "Liveness probe",
                    "responses": {
                        "200": {
                            "description": "Service is up.",
                            "content": {
                                "application/json": {
                                    "schema": {
                                        "type": "object",
                                        "properties": {
                                            "status": {"type": "string"},
                                            "version": {"type": "string"},
                                        },
                                    }
                                }
                            },
                        }
                    },
                }
            },
            f"/{API_VERSION}/stats": {
                "get": {
                    "summary": "Service accounting",
                    "description": (
                        "Job counts by status, engine executions, queue depth "
                        "and bound, and result-cache statistics."
                    ),
                    "responses": {
                        "200": {
                            "description": "Current counters.",
                            "content": {"application/json": {"schema": {"type": "object"}}},
                        }
                    },
                }
            },
            f"/{API_VERSION}/scenarios": {
                "get": {
                    "summary": "List the scenario library",
                    "description": (
                        "Every versioned scenario set on disk, with per-entry "
                        "labels and digests."
                    ),
                    "responses": {
                        "200": {
                            "description": "Scenario sets.",
                            "content": {"application/json": {"schema": {"type": "object"}}},
                        }
                    },
                }
            },
            f"/{API_VERSION}/openapi.json": {
                "get": {
                    "summary": "This document",
                    "responses": {
                        "200": {
                            "description": "The OpenAPI description.",
                            "content": {"application/json": {"schema": {"type": "object"}}},
                        }
                    },
                }
            },
            f"/{API_VERSION}/runs": {
                "post": {
                    "summary": "Submit experiments",
                    "description": (
                        "Submit an inline spec or a named scenario set. "
                        "Submissions are keyed by content digest: an identical "
                        "spec never runs twice, whether it is already cached, "
                        "queued, running, or finished."
                    ),
                    "requestBody": {
                        "required": True,
                        "content": {
                            "application/json": {
                                "schema": {"$ref": "#/components/schemas/Submit"}
                            }
                        },
                    },
                    "responses": {
                        "202": {
                            "description": "Accepted (some runs may be cached).",
                            "content": {
                                "application/json": {
                                    "schema": {
                                        "$ref": "#/components/schemas/SubmitResponse"
                                    }
                                }
                            },
                        },
                        "400": _error_response("Malformed submission."),
                        "429": _error_response(
                            "Job queue at capacity; nothing was enqueued."
                        ),
                    },
                }
            },
            f"/{API_VERSION}/runs/{{digest}}": {
                "get": {
                    "summary": "Run state",
                    "parameters": [
                        {
                            "name": "digest",
                            "in": "path",
                            "required": True,
                            "schema": {"type": "string"},
                        }
                    ],
                    "responses": {
                        "200": {
                            "description": "Job state (result summary once done).",
                            "content": {
                                "application/json": {
                                    "schema": {"$ref": "#/components/schemas/Run"}
                                }
                            },
                        },
                        "404": _error_response("Unknown digest."),
                    },
                }
            },
            f"/{API_VERSION}/runs/{{digest}}/events": {
                "get": {
                    "summary": "Progress stream (SSE)",
                    "description": (
                        "Server-sent events: each message has an `event:` "
                        "field (queued, running, retry, completed, cached, "
                        "failed, done) and a JSON `data:` payload. The stream "
                        "replays the job's full event log from the start and "
                        "ends after the terminal done/failed event: on HTTP/1.1 "
                        "with the zero-length chunk of a chunked body, the "
                        "connection staying open; on HTTP/1.0 by closing the "
                        "connection. Keepalive comment lines (`: keepalive`) "
                        "are sent while the job is idle."
                    ),
                    "parameters": [
                        {
                            "name": "digest",
                            "in": "path",
                            "required": True,
                            "schema": {"type": "string"},
                        }
                    ],
                    "responses": {
                        "200": {
                            "description": "text/event-stream until job completion.",
                            "content": {"text/event-stream": {}},
                        },
                        "404": _error_response("Unknown digest."),
                    },
                }
            },
        },
        "components": {
            "schemas": {
                "Run": _RUN_SCHEMA,
                "Submit": _SUBMIT_SCHEMA,
                "SubmitResponse": _SUBMIT_RESPONSE,
                "Error": _ERROR_SCHEMA,
            }
        },
    }
